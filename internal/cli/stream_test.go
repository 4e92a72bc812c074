package cli

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// TestStreamInstanceMatchesBuildGraph pins the contract that -stream output,
// read back through the two-pass CSR path, is the same instance BuildGraph
// constructs in memory — same structure, same edge ids, same weights.
func TestStreamInstanceMatchesBuildGraph(t *testing.T) {
	cases := []struct {
		generator string
		n         int
		d         float64
		weights   string
	}{
		{"gnp", 500, 8, "uniform"},
		{"gnp", 200, 4, "unit"},
		{"bipartite", 300, 6, "exp"},
		{"grid", 100, 0, "loguniform"},
		{"star", 64, 0, "uniform"},
	}
	for _, c := range cases {
		// PrepareStream + WriteTo, as mwvc-gen -stream runs them.
		job, err := PrepareStream(c.generator, c.n, c.d, c.weights, 7)
		if err != nil {
			t.Fatalf("%s: %v", c.generator, err)
		}
		var buf bytes.Buffer
		m, err := job.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.generator, err)
		}
		nv := job.Vertices
		r := bytes.NewReader(buf.Bytes())
		streamed, err := graph.ReadStream(r, r.Size())
		if err != nil {
			t.Fatalf("%s: reading streamed output: %v", c.generator, err)
		}
		if streamed.NumVertices() != nv || int64(streamed.NumEdges()) != m {
			t.Fatalf("%s: reported (n=%d,m=%d) but parsed (n=%d,m=%d)",
				c.generator, nv, m, streamed.NumVertices(), streamed.NumEdges())
		}
		built, err := BuildGraph(c.generator, c.n, c.d, c.weights, 7)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := graph.Write(&want, built); err != nil {
			t.Fatal(err)
		}
		if err := graph.Write(&got, streamed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%s: streamed instance differs from BuildGraph instance", c.generator)
		}
	}
}

func TestStreamInstanceRejections(t *testing.T) {
	if _, err := PrepareStream("powerlaw", 100, 8, "unit", 1); err == nil {
		t.Fatal("non-streamable generator accepted")
	}
	if _, err := PrepareStream("gnp", 100, 8, "degree", 1); err == nil {
		t.Fatal("degree-correlated weight model accepted for streaming")
	}
	if _, err := PrepareStream("gnp", -1, 8, "unit", 1); err == nil {
		t.Fatal("negative n accepted")
	}
}
