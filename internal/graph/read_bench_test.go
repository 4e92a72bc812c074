package graph_test

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

var readSink *graph.Graph

// BenchmarkReadStream reads the fast-ingest benchmark input, an RMAT(16, 8)
// graph (Graph500 quadrant probabilities) with uniform[1,100) weights in
// the "mwvc-el 1" format, from memory. Run it at -cpu 1,2 to see one chunk
// and two (one per core); MB/s counts the input bytes. It loops over b.N
// rather than b.Loop: under Go 1.24, b.Loop runs every iteration in the
// first call, before -cpu has set GOMAXPROCS.
func BenchmarkReadStream(b *testing.B) {
	g := gen.ApplyWeights(gen.RMAT(1, 16, 8, 0.57, 0.19, 0.19), 1, gen.UniformRange{Lo: 1, Hi: 100})
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		b.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	b.SetBytes(r.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := graph.ReadStream(r, r.Size())
		if err != nil {
			b.Fatal(err)
		}
		readSink = h
	}
}

// BenchmarkRead reads an upload-shaped input through Read, the one-chunk
// reader over an io.Reader: G(10000, 16) with uniform[1,100) weights in the
// canonical "mwvc-graph 1" text that POST /v1/graphs bodies use, from
// memory. MB/s counts the input bytes.
func BenchmarkRead(b *testing.B) {
	g := gen.ApplyWeights(gen.GnpAvgDegree(1, 10_000, 16), 1, gen.UniformRange{Lo: 1, Hi: 100})
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := graph.Read(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		readSink = h
	}
}
