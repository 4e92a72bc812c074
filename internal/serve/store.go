package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	mwvc "repro"
	"repro/internal/graph"
)

// HashGraph returns the content address of g: "sha256:" plus the hex digest
// of its canonical text serialization (graph.Write is deterministic — header,
// weights in vertex order, edges in id order — so re-uploads of the same
// instance, whatever their on-wire format, record order, or duplicate edges,
// always collapse to one stored graph). The canonical bytes stream straight
// into the digest as they are produced; no serialization buffer is
// materialized. See docs/FORMATS.md for the canonicalization rule.
func HashGraph(g *graph.Graph) (string, error) {
	h := sha256.New()
	if err := graph.Write(h, g); err != nil {
		return "", fmt.Errorf("serve: hashing graph: %w", err)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// StoredGraph is a graph held by the store under its content hash, with
// the slot that keeps its reduction for every solve after the first.
type StoredGraph struct {
	Hash     string
	Graph    *graph.Graph
	Vertices int
	Edges    int

	kernel mwvc.Kernel
}

// GraphStore is the content-addressed graph repository behind POST
// /v1/graphs: clients upload a graph once and refer to it by hash in any
// number of solve requests, so repeated solves of the same instance never
// re-upload (or re-parse) it. All methods are safe for concurrent use.
//
// Each stored graph also keeps its kernel (mwvc.Kernel): the engine reduces
// a graph on its first successful solve with reduction on, and every later
// solve, whatever its algorithm, seed, ε or budget, takes that kernel. The
// store never evicts and holds at most max graphs, so it keeps at most one
// kernel per stored graph; an irreducible graph's kernel is the graph
// itself and costs only its reduction stats.
//
// A store opened with OpenGraphStore is additionally durable: every Add is
// spilled to dir as an "mwvc-el 1" file named by the graph's sha256 digest
// before it is acknowledged, written atomically (temp file → fsync → rename
// → directory fsync), so a process killed at any instant either has the
// whole graph on disk or an orphaned temp the next startup deletes — never
// a torn file under the final name.
type GraphStore struct {
	mu       sync.RWMutex
	graphs   map[string]*StoredGraph
	max      int
	dir      string // "" = in-memory only
	recovery RecoveryStats
}

// NewGraphStore returns an in-memory store holding at most max graphs (0
// means the default of 1024). The cap is a guardrail against unbounded
// memory from hostile or runaway uploads, not an eviction policy: when
// full, Add returns ErrStoreFull and the client must reuse stored graphs.
func NewGraphStore(max int) *GraphStore {
	if max <= 0 {
		max = 1024
	}
	return &GraphStore{graphs: make(map[string]*StoredGraph), max: max}
}

// ErrStoreFull reports that the graph store reached its configured cap.
var ErrStoreFull = fmt.Errorf("serve: graph store full")

// Add stores g under its content hash and returns the stored entry plus
// whether the graph was new. Re-adding an existing graph is a cheap no-op
// returning the prior entry — that is the point of content addressing. On a
// durable store the graph is fsynced to disk before Add returns: a nil
// error is a durability acknowledgment, and a persist failure leaves the
// store (memory and disk) without the graph so the client can retry.
func (s *GraphStore) Add(g *graph.Graph) (sg *StoredGraph, isNew bool, err error) {
	hash, err := HashGraph(g)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.graphs[hash]; ok {
		return prev, false, nil
	}
	if len(s.graphs) >= s.max {
		return nil, false, fmt.Errorf("%w (cap %d)", ErrStoreFull, s.max)
	}
	sg = &StoredGraph{Hash: hash, Graph: g, Vertices: g.NumVertices(), Edges: g.NumEdges()}
	if s.dir != "" {
		if err := s.persist(sg); err != nil {
			return nil, false, err
		}
	}
	s.graphs[hash] = sg
	return sg, true, nil
}

// Get returns the stored graph with the given content hash.
func (s *GraphStore) Get(hash string) (*StoredGraph, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sg, ok := s.graphs[hash]
	return sg, ok
}

// Len returns the number of stored graphs.
func (s *GraphStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.graphs)
}
