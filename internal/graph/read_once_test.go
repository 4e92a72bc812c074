package graph_test

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// countingReaderAt counts the bytes requested from an io.ReaderAt; the
// chunks of one read call it concurrently.
type countingReaderAt struct {
	r         io.ReaderAt
	requested atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.requested.Add(int64(len(p)))
	return c.r.ReadAt(p, off)
}

// TestReadStreamReadsOnce reads a multi-MiB edge list through ReadStream at
// the current GOMAXPROCS and checks that every core gets a chunk, that the
// read asks its io.ReaderAt for every byte once, plus one 4 KiB newline
// probe per cut between chunks, and that the graph is Read's. CI runs it at
// -cpu 1,2,4, so at 1, 2 and 4 chunks.
func TestReadStreamReadsOnce(t *testing.T) {
	g := gen.ApplyWeights(gen.GnpAvgDegree(5, 40_000, 16), 5, gen.UniformRange{Lo: 1, Hi: 100})
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	size := int64(len(data))
	body := int64(bytes.IndexByte(data, '\n') + 1) // after the header line
	body += int64(bytes.IndexByte(data[body:], '\n') + 1)
	// Four chunks fit by body size (1 MiB each) and by vertex count
	// (1 + size/(8n)), so up to four cores each get one.
	if size-body < 4<<20 || 1+size/(8*int64(g.NumVertices())) < 4 {
		t.Fatalf("input too small for four chunks: %d body bytes, n = %d", size-body, g.NumVertices())
	}
	procs := runtime.GOMAXPROCS(0)
	p := graph.ChunkCount(g.NumVertices(), body, size)
	if p < min(procs, 4) || (procs <= 4 && p != procs) {
		t.Fatalf("%d chunks at GOMAXPROCS %d, want one per core", p, procs)
	}

	want, err := graph.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r := &countingReaderAt{r: bytes.NewReader(data)}
	got, err := graph.ReadStream(r, size)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Weights(), want.Weights()) || !slices.Equal(got.EdgeEndpoints(), want.EdgeEndpoints()) {
		t.Fatal("ReadStream's graph differs from Read's")
	}
	requested := r.requested.Load()
	if limit := size + int64(p-1)*(4<<10); requested > limit {
		t.Fatalf("ReadStream requested %d bytes of a %d-byte input in %d chunks, want at most %d", requested, size, p, limit)
	}
	t.Logf("GOMAXPROCS %d: requested %.4f× of %d bytes", procs, float64(requested)/float64(size), size)
}
