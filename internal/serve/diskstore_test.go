package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

func listWithSuffix(t *testing.T, dir, suffix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), suffix) {
			names = append(names, ent.Name())
		}
	}
	return names
}

// TestDiskStoreRoundTrip is the durability contract: a graph acknowledged by
// one store is recovered bit-identically (same content hash) by a fresh
// store over the same directory.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenGraphStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 3, 60, 4)
	sg, isNew, err := s1.Add(g)
	if err != nil || !isNew {
		t.Fatalf("add: new=%v err=%v", isNew, err)
	}
	if files := listWithSuffix(t, dir, storeFileExt); len(files) != 1 {
		t.Fatalf("data dir has %v, want one %s file", files, storeFileExt)
	}

	s2, err := OpenGraphStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s2.Recovery(); rec.Recovered != 1 || rec.Quarantined != 0 || rec.TempsRemoved != 0 {
		t.Fatalf("recovery stats %+v, want exactly one recovered graph", rec)
	}
	got, ok := s2.Get(sg.Hash)
	if !ok {
		t.Fatalf("recovered store does not serve %s", sg.Hash)
	}
	if got.Hash != sg.Hash || got.Vertices != sg.Vertices || got.Edges != sg.Edges {
		t.Fatalf("recovered graph %+v differs from stored %+v", got, sg)
	}
	// Re-uploading the same content is recognized, not duplicated.
	if _, isNew, err := s2.Add(g); err != nil || isNew {
		t.Fatalf("re-add after recovery: new=%v err=%v, want existing graph", isNew, err)
	}
}

// TestDiskStoreQuarantinesCorruptFile covers bit rot / truncation under the
// final name: the recovery scan must rename the file aside — never delete
// it, never serve it.
func TestDiskStoreQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenGraphStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	sg, _, err := s1.Add(testGraph(t, 4, 50, 4))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.TrimPrefix(sg.Hash, "sha256:")+storeFileExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil { // truncate: torn write
		t.Fatal(err)
	}

	s2, err := OpenGraphStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s2.Recovery(); rec.Recovered != 0 || rec.Quarantined != 1 {
		t.Fatalf("recovery stats %+v, want one quarantined file", rec)
	}
	if _, ok := s2.Get(sg.Hash); ok {
		t.Fatal("corrupt graph served after recovery")
	}
	if q := listWithSuffix(t, dir, quarantineExt); len(q) != 1 {
		t.Fatalf("quarantine files %v, want exactly one", q)
	}
	if live := listWithSuffix(t, dir, storeFileExt); len(live) != 0 {
		t.Fatalf("corrupt file still under trusted name: %v", live)
	}
}

// TestDiskStoreQuarantinesHashMismatch covers a well-formed file stored under
// the wrong name — content addressing must not trust the filename.
func TestDiskStoreQuarantinesHashMismatch(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 5, 40, 3)
	wrong := filepath.Join(dir, strings.Repeat("ab", 32)+storeFileExt)
	f, err := os.Create(wrong)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := OpenGraphStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s.Recovery(); rec.Recovered != 0 || rec.Quarantined != 1 {
		t.Fatalf("recovery stats %+v, want the misnamed file quarantined", rec)
	}
	if s.Len() != 0 {
		t.Fatalf("store indexed %d graphs from a misnamed file", s.Len())
	}
}

// TestDiskStoreCrashMidWrite simulates a SIGKILL between writing the temp
// file and the atomic rename (an injected panic leaves the temp on disk just
// as a dead process would): Add must not have acknowledged, the next startup
// must sweep the temp, and re-uploading must round-trip bit-identically.
func TestDiskStoreCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenGraphStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 6, 70, 5)

	restore := fault.Enable(fault.NewInjector(0, fault.Rule{Point: fault.StoreRename, Every: 1, Limit: 1, Action: fault.ActPanic}))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected crash did not fire")
			}
		}()
		s1.Add(g)
	}()
	restore()

	if tmps := listWithSuffix(t, dir, ".tmp"); len(tmps) != 1 {
		t.Fatalf("crash left %v, want exactly one orphaned temp", tmps)
	}
	if live := listWithSuffix(t, dir, storeFileExt); len(live) != 0 {
		t.Fatalf("crash published %v without the rename", live)
	}

	s2, err := OpenGraphStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s2.Recovery(); rec.TempsRemoved != 1 || rec.Recovered != 0 || rec.Quarantined != 0 {
		t.Fatalf("recovery stats %+v, want one temp removed", rec)
	}
	if tmps := listWithSuffix(t, dir, ".tmp"); len(tmps) != 0 {
		t.Fatalf("temps survived recovery: %v", tmps)
	}
	// The graph was never acknowledged; the retry must succeed and persist.
	sg, isNew, err := s2.Add(g)
	if err != nil || !isNew {
		t.Fatalf("re-upload after crash: new=%v err=%v", isNew, err)
	}
	s3, err := OpenGraphStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s3.Get(sg.Hash)
	if !ok || got.Hash != sg.Hash {
		t.Fatalf("re-uploaded graph not recovered bit-identically (ok=%v)", ok)
	}
}

// TestDiskStoreWriteFaultIsRetryable pins the client contract for persist
// failures: a typed retryable error, no acknowledgment, no litter, and a
// clean retry once the fault clears.
func TestDiskStoreWriteFaultIsRetryable(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenGraphStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 7, 30, 3)

	restore := fault.Enable(fault.NewInjector(0, fault.Rule{Point: fault.StoreWrite, Every: 1, Limit: 1}))
	_, _, err = s.Add(g)
	restore()
	if !errors.Is(err, ErrRetryable) || s.Len() != 0 {
		t.Fatalf("faulted add: err=%v len=%d, want ErrRetryable and empty store", err, s.Len())
	}
	if tmps := listWithSuffix(t, dir, ".tmp"); len(tmps) != 0 {
		t.Fatalf("failed add littered temps: %v", tmps)
	}
	if _, isNew, err := s.Add(g); err != nil || !isNew {
		t.Fatalf("retry after fault: new=%v err=%v", isNew, err)
	}
}

// TestEngineRecoversDataDir is the engine-level restart test: graphs
// acknowledged before a shutdown solve after a restart on the same data
// directory, without re-upload.
func TestEngineRecoversDataDir(t *testing.T) {
	dir := t.TempDir()
	e1, err := NewEngine(Config{Workers: 1, QueueDepth: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hash := addGraph(t, e1, testGraph(t, 8, 50, 4))
	e1.Close()

	e2 := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, DataDir: dir})
	req, err := e2.Submit(SolveParams{GraphHash: hash, Algorithm: "greedy"})
	if err != nil {
		t.Fatalf("solve against recovered graph: %v", err)
	}
	if err := req.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := req.Snapshot()
	sol, err := snap.Sol, snap.Err
	if err != nil || sol == nil {
		t.Fatalf("recovered solve: sol=%v err=%v", sol, err)
	}
	if m := e2.Metrics(); m.StoreRecovered != 1 {
		t.Fatalf("metrics report %d recovered graphs, want 1", m.StoreRecovered)
	}
}
