package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// CSRBuilder assembles a Graph directly into its final CSR arrays from two
// passes over an edge stream, using O(n + m) memory with no intermediate
// edge-list buffer. It is the ingestion path for instances too large to
// mirror as an in-memory pair list (Builder's job): the caller streams every
// edge once through CountEdge, calls EndCount, streams the same edges again
// through AddEdge, and calls Build.
//
// The two passes must induce the same degree sequence (replaying the same
// stream — a file read twice, a deterministic generator run twice — always
// does); violations are detected and reported. Duplicate edges are merged
// and self-loops rejected, matching Builder semantics, so for a given edge
// set both builders produce bit-identical graphs.
//
// A CSRBuilder is single-use: Build transfers ownership of its arrays to
// the returned Graph.
type CSRBuilder struct {
	n         int
	weights   []float64
	offsets   []uint32
	neighbors []Vertex
	// whole is the CountEdge/AddEdge stream, and part 0 of a partitioned
	// one. Its deg holds per-vertex counts during pass 1, the fill cursors
	// during pass 2, and the reverse-slot cursors during Build — one n-sized
	// array wearing three hats so the builder's overhead beyond the final
	// graph is a single scratch array.
	whole csrPart
	// parts are the parts pass 1 merged: whole alone, or a reader's chunks.
	parts []*csrPart
	state csrState
}

// csrPart is one part of an edge stream split into consecutive parts that
// are counted and filled independently, possibly concurrently: the
// arbitrarily partitioned edge set of the MPC model, with a reader's chunks
// as the machines. Each part counts degrees privately in pass 1, and the
// prefix sum of endCountParts merges the counts. Within row v, part k's
// slots follow those of parts 0..k-1, so part k's pass-2 cursor starts at
// offsets[v] + Σ_{j<k} count_j[v] and stops at part k+1's start (the last
// part's at offsets[v+1]). No part can write another's slots, and the
// per-vertex excess check of AddEdge holds per part. Build sorts every row,
// so the partition never reaches the graph.
type csrPart struct {
	deg     []uint32 // pass-1 counts, then pass-2 fill cursors
	lim     []uint32 // pass-2 cursor limits
	counted int64
	filled  int64
}

type csrState uint8

const (
	csrCounting csrState = iota
	csrFilling
	csrBuilt
)

// NewCSRBuilder returns a streaming builder for a graph on n vertices, all
// with weight 1.
func NewCSRBuilder(n int) *CSRBuilder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return &CSRBuilder{n: n, weights: w, whole: csrPart{deg: make([]uint32, n)}}
}

// NumVertices returns the declared vertex count.
func (b *CSRBuilder) NumVertices() int { return b.n }

// SetWeight sets the weight of vertex v; callable at any point before Build.
// Weights must be positive and finite; violations surface at Build time.
func (b *CSRBuilder) SetWeight(v Vertex, w float64) *CSRBuilder {
	b.weights[v] = w
	return b
}

// SetWeights copies the given weights (which must have length n).
func (b *CSRBuilder) SetWeights(w []float64) *CSRBuilder {
	if len(w) != b.n {
		panic(fmt.Sprintf("graph: SetWeights length %d, want %d", len(w), b.n))
	}
	copy(b.weights, w)
	return b
}

// checkEndpoints reports an edge record that no graph on n vertices has.
func checkEndpoints(n int, u, v Vertex) error {
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return fmt.Errorf("graph: edge (%d,%d) has endpoint out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	return nil
}

// CountEdge records one edge of the first pass. Endpoint order is
// irrelevant; duplicates may be counted (they are merged at Build).
func (b *CSRBuilder) CountEdge(u, v Vertex) error {
	if b.state != csrCounting {
		return errors.New("graph: CountEdge after EndCount")
	}
	return b.countPart(&b.whole, u, v)
}

// countPart records one pass-1 edge of part p.
func (b *CSRBuilder) countPart(p *csrPart, u, v Vertex) error {
	if uint(u) >= uint(b.n) || uint(v) >= uint(b.n) || u == v {
		// The test is checkEndpoints', inlined for the per-edge path.
		return checkEndpoints(b.n, u, v)
	}
	if p.counted >= math.MaxInt32 {
		return errEdgeCount
	}
	p.deg[u]++
	p.deg[v]++
	p.counted++
	return nil
}

// errEdgeCount rejects a stream whose 2m adjacency slots would overflow the
// uint32 offsets.
var errEdgeCount = fmt.Errorf("graph: edge count exceeds %d", math.MaxInt32)

// EndCount finishes the first pass: it prefix-sums the degree counts into
// the CSR offsets and allocates the adjacency array (the only O(m)
// allocation the builder performs).
func (b *CSRBuilder) EndCount() error {
	if b.state != csrCounting {
		return errors.New("graph: EndCount called twice")
	}
	return b.endCountParts([]*csrPart{&b.whole})
}

// endCountParts is EndCount for a stream counted in parts, in stream order
// with parts[0] = &b.whole. It turns every part's counts into its fill
// cursors and limits (see csrPart); each part after the first costs one more
// n-sized array, for the limits of the part before it.
func (b *CSRBuilder) endCountParts(parts []*csrPart) error {
	var total int64
	for _, p := range parts {
		total += p.counted
	}
	if total > math.MaxInt32 {
		return errEdgeCount
	}
	b.offsets = make([]uint32, b.n+1)
	last := len(parts) - 1
	for _, p := range parts[:last] {
		p.lim = make([]uint32, b.n)
	}
	parts[last].lim = b.offsets[1:]
	var sum uint32
	for v := 0; v < b.n; v++ {
		b.offsets[v] = sum
		for k, p := range parts {
			d := p.deg[v]
			p.deg[v] = sum
			if k > 0 {
				parts[k-1].lim[v] = sum
			}
			sum += d
		}
	}
	b.offsets[b.n] = sum
	b.neighbors = make([]Vertex, sum)
	b.parts = parts
	b.state = csrFilling
	return nil
}

// AddEdge records one edge of the second pass, placing both directed slots
// at their final CSR positions. The second pass must induce the same degree
// sequence as the first; an excess at either endpoint is reported here and
// a shortfall at Build.
func (b *CSRBuilder) AddEdge(u, v Vertex) error {
	if b.state != csrFilling {
		if b.state == csrCounting {
			return errors.New("graph: AddEdge before EndCount")
		}
		return errors.New("graph: AddEdge after Build")
	}
	return b.fillPart(&b.whole, u, v)
}

// fillPart records one pass-2 edge of part p at p's fill cursors.
func (b *CSRBuilder) fillPart(p *csrPart, u, v Vertex) error {
	if uint(u) >= uint(b.n) || uint(v) >= uint(b.n) || u == v {
		return checkEndpoints(b.n, u, v)
	}
	cu := p.deg[u]
	if cu >= p.lim[u] {
		return fmt.Errorf("graph: pass 2 has more edges at vertex %d than pass 1 counted", u)
	}
	cv := p.deg[v]
	if cv >= p.lim[v] {
		return fmt.Errorf("graph: pass 2 has more edges at vertex %d than pass 1 counted", v)
	}
	b.neighbors[cu] = v
	p.deg[u] = cu + 1
	b.neighbors[cv] = u
	p.deg[v] = cv + 1
	p.filled++
	return nil
}

// Build sorts each adjacency row in place, merges duplicate edges, assigns
// edge ids in lexicographic (min, max) order, validates weights, and
// freezes the arrays into a Graph. The builder must not be used afterwards.
func (b *CSRBuilder) Build() (*Graph, error) {
	switch b.state {
	case csrCounting:
		// A zero-edge caller may go straight to Build.
		if err := b.EndCount(); err != nil {
			return nil, err
		}
	case csrFilling:
	default:
		return nil, errors.New("graph: CSRBuilder already built")
	}
	var counted, filled int64
	for _, p := range b.parts {
		counted += p.counted
		filled += p.filled
	}
	if filled != counted {
		return nil, fmt.Errorf("graph: pass 2 delivered %d edges, pass 1 counted %d", filled, counted)
	}
	for v, w := range b.weights {
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: vertex %d has weight %v, want positive finite", v, w)
		}
	}

	// Sort rows, then merge duplicate slots in place, rebuilding offsets as
	// the write cursor advances (offsets[v] is rewritten only after both of
	// its reads, so the compaction is safe front-to-back).
	var w uint32
	for v := 0; v < b.n; v++ {
		lo, hi := b.offsets[v], b.offsets[v+1]
		slices.Sort(b.neighbors[lo:hi])
		start := w
		var prev Vertex = -1
		for i := lo; i < hi; i++ {
			if x := b.neighbors[i]; x != prev {
				b.neighbors[w] = x
				prev = x
				w++
			}
		}
		b.offsets[v] = start
	}
	b.offsets[b.n] = w
	slots := int(w)
	if slots%2 != 0 {
		return nil, errors.New("graph: internal error: odd adjacency slot count")
	}
	neighbors := b.neighbors[:slots]
	if slots <= cap(b.neighbors)*3/4 {
		neighbors = slices.Clone(neighbors) // heavy dedup: release the slack
	}

	// Assign edge ids by scanning rows in vertex order: every slot with
	// neighbor > row vertex opens the next id; its mirror slot is the first
	// unassigned slot of the neighbor's row (rows are sorted, and smaller
	// endpoints are visited in increasing order), tracked by reusing
	// whole.deg as per-row cursors.
	m := slots / 2
	slotEdges := make([]EdgeID, slots)
	endpoints := make([]Vertex, slots)
	cursor := b.whole.deg
	copy(cursor, b.offsets[:b.n])
	next := EdgeID(0)
	for u := 0; u < b.n; u++ {
		for i := b.offsets[u]; i < b.offsets[u+1]; i++ {
			v := neighbors[i]
			if v <= Vertex(u) {
				continue
			}
			j := cursor[v]
			if neighbors[j] != Vertex(u) {
				return nil, fmt.Errorf("graph: internal error: mirror slot mismatch at edge (%d,%d)", u, v)
			}
			endpoints[2*next] = Vertex(u)
			endpoints[2*next+1] = v
			slotEdges[i] = next
			slotEdges[j] = next
			cursor[v] = j + 1
			next++
		}
	}
	if int(next) != m {
		return nil, errors.New("graph: internal error: edge id count mismatch")
	}

	g := &Graph{
		weights:   b.weights,
		offsets:   b.offsets,
		neighbors: neighbors,
		slotEdges: slotEdges,
		endpoints: endpoints,
	}
	b.state = csrBuilt
	b.weights, b.offsets, b.neighbors, b.whole, b.parts = nil, nil, nil, csrPart{}, nil
	return g, nil
}
