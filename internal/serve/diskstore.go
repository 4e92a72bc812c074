package serve

// The durable backing of GraphStore: content-addressed "mwvc-el 1" files,
// written atomically, verified and re-indexed by a startup recovery scan.
// Kept separate from store.go so the in-memory semantics stay readable on
// their own; everything here is reached only through OpenGraphStore.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fault"
	"repro/internal/graph"
)

// storeFileExt is the on-disk suffix of a persisted graph: the file body is
// the streaming "mwvc-el 1" format (docs/FORMATS.md), the file name is the
// hex sha256 of the graph's canonical serialization.
const storeFileExt = ".mwvc-el"

// quarantineExt is appended to a file that fails verification during the
// recovery scan. Quarantine renames rather than deletes: a false positive
// (or a file someone wants to autopsy) keeps its bytes.
const quarantineExt = ".quarantine"

// RecoveryStats reports what a durable store's startup scan found in its
// data directory.
type RecoveryStats struct {
	// Recovered counts graph files that verified (stored digest == recomputed
	// digest) and were re-indexed.
	Recovered int
	// Quarantined counts files that failed to load or verify and were
	// renamed aside with the ".quarantine" suffix.
	Quarantined int
	// TempsRemoved counts orphaned write temps (".tmp") deleted — the litter
	// of an Add interrupted before its atomic rename.
	TempsRemoved int
}

// OpenGraphStore opens (creating if needed) a durable store over dir,
// holding at most max graphs in memory (0 means the default of 1024).
//
// The startup recovery scan rebuilds the index from disk: every *.mwvc-el
// file is reloaded through the streaming CSR reader and its content hash
// recomputed; files whose digest matches their name are re-indexed, files
// that fail to parse or verify are quarantined (renamed, not deleted), and
// orphaned *.tmp files from writes the previous process never completed are
// removed. After OpenGraphStore returns, every graph acknowledged by the
// previous process is served under its original hash.
func OpenGraphStore(dir string, max int) (*GraphStore, error) {
	if max <= 0 {
		max = 1024
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening graph store: %w", err)
	}
	s := &GraphStore{graphs: make(map[string]*StoredGraph), max: max, dir: dir}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Recovery returns the startup scan's findings (zero for in-memory stores).
func (s *GraphStore) Recovery() RecoveryStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recovery
}

// recover is the startup scan behind OpenGraphStore. It runs before the
// store is shared, so it needs no locking.
func (s *GraphStore) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("serve: scanning graph store: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		path := filepath.Join(s.dir, name)
		switch {
		case ent.IsDir():
			continue
		case strings.HasSuffix(name, ".tmp"):
			// An Add that never reached its rename: the graph was never
			// acknowledged, so the partial bytes are garbage by contract.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("serve: removing orphaned temp %s: %w", name, err)
			}
			s.recovery.TempsRemoved++
		case strings.HasSuffix(name, storeFileExt):
			sg, err := loadGraphFile(path)
			if err != nil {
				// Corrupt (torn write that somehow reached the final name,
				// bit rot, truncation) — or unreadable. Quarantine either
				// way: serving a graph under a hash its bytes no longer
				// match would break content addressing silently.
				if qerr := os.Rename(path, path+quarantineExt); qerr != nil {
					return fmt.Errorf("serve: quarantining %s: %w", name, qerr)
				}
				s.recovery.Quarantined++
				continue
			}
			if wantHex := strings.TrimSuffix(name, storeFileExt); sg.Hash != "sha256:"+wantHex {
				if qerr := os.Rename(path, path+quarantineExt); qerr != nil {
					return fmt.Errorf("serve: quarantining %s: %w", name, qerr)
				}
				s.recovery.Quarantined++
				continue
			}
			if len(s.graphs) < s.max {
				s.graphs[sg.Hash] = sg
				s.recovery.Recovered++
			}
		}
	}
	return nil
}

// loadGraphFile reloads one persisted graph through the two-pass streaming
// reader and recomputes its content hash — the checksum verification that
// makes a recovered index trustworthy.
func loadGraphFile(path string) (*StoredGraph, error) {
	if err := fault.Hit(fault.StoreRead); err != nil {
		return nil, err
	}
	g, err := graph.OpenFile(path)
	if err != nil {
		return nil, err
	}
	hash, err := HashGraph(g)
	if err != nil {
		return nil, err
	}
	return &StoredGraph{Hash: hash, Graph: g, Vertices: g.NumVertices(), Edges: g.NumEdges()}, nil
}

// persist spills one graph to the data directory with the atomic
// write-temp-fsync-rename protocol. Called by Add with s.mu held, so two
// concurrent uploads of the same content never race on the file; the
// trade-off — uploads serialize against each other — is the price of "200
// means durable".
func (s *GraphStore) persist(sg *StoredGraph) error {
	hexDigest := strings.TrimPrefix(sg.Hash, "sha256:")
	final := filepath.Join(s.dir, hexDigest+storeFileExt)
	tmp, err := os.CreateTemp(s.dir, hexDigest+".*.tmp")
	if err != nil {
		return fmt.Errorf("%w: creating graph temp: %v", ErrRetryable, err)
	}
	tmpPath := tmp.Name()
	fail := func(stage string, err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("%w: %s %s: %v", ErrRetryable, stage, filepath.Base(tmpPath), err)
	}
	if err := fault.Hit(fault.StoreWrite); err != nil {
		return fail("writing", err)
	}
	if err := graph.WriteEdgeList(tmp, sg.Graph); err != nil {
		return fail("writing", err)
	}
	// fsync before rename: without it the rename can become durable before
	// the data, and a crash yields a complete-looking file of garbage under
	// the final (trusted) name.
	if err := tmp.Sync(); err != nil {
		return fail("syncing", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("closing", err)
	}
	if err := fault.Hit(fault.StoreRename); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("%w: publishing %s: %v", ErrRetryable, filepath.Base(final), err)
	}
	if err := os.Rename(tmpPath, final); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("%w: publishing %s: %v", ErrRetryable, filepath.Base(final), err)
	}
	// fsync the directory so the rename itself survives a crash.
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("%w: syncing store directory: %v", ErrRetryable, err)
	}
	return nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
