package graph

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(77, 40, 200)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), elFormatHeader+"\n") {
		t.Fatalf("edge-list output missing header: %q", buf.String()[:20])
	}
	h, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, h)
}

// TestReadStreamMatchesRead pins that Read and ReadStream parse both formats
// to the written graph, and bounds the bytes Read allocates.
func TestReadStreamMatchesRead(t *testing.T) {
	g := randomGraph(99, 60, 340)
	for _, write := range []struct {
		name string
		fn   func(*bytes.Buffer) error
	}{
		{"mwvc-graph", func(b *bytes.Buffer) error { return Write(b, g) }},
		{"mwvc-el", func(b *bytes.Buffer) error { return WriteEdgeList(b, g) }},
	} {
		t.Run(write.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := write.fn(&buf); err != nil {
				t.Fatal(err)
			}
			one, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			r := bytes.NewReader(buf.Bytes())
			two, err := ReadStream(r, r.Size())
			if err != nil {
				t.Fatal(err)
			}
			if err := two.Validate(); err != nil {
				t.Fatal(err)
			}
			assertSameGraph(t, one, two)
			assertSameGraph(t, g, two)
		})
	}

	// Read sizes the CSR arrays once and keeps its edge records, 8 bytes
	// each, in blocks that never grow by copying, so beyond the finished
	// graph's 24m + 12n bytes it allocates little more than those records,
	// its line buffer and one n-sized scratch array.
	h := randomGraph(7, 5000, 40000)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, h); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const reads = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / reads / float64(24*h.NumEdges()+12*h.NumVertices())
	if ratio >= 2 {
		t.Fatalf("Read allocates %.2f× the graph's %d vertices and %d edges, want below 2×", ratio, h.NumVertices(), h.NumEdges())
	}
	t.Logf("Read allocates %.2f× the graph", ratio)
}

func TestEdgeListToleratesDuplicatesAndInterleaving(t *testing.T) {
	in := "mwvc-el 1\n3\ne 0 1\nw 2 5.5\ne 1 0\n# dup above\ne 1 2\nw 0 2\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.Weight(0) != 2 || g.Weight(2) != 5.5 {
		t.Fatalf("parsed wrong graph: %v", g)
	}
	r := strings.NewReader(in)
	h, err := ReadStream(r, r.Size())
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, h)
}

func TestEdgeListRejectsEdgeCountInHeader(t *testing.T) {
	if _, err := Read(strings.NewReader("mwvc-el 1\n3 2\ne 0 1\n")); err == nil {
		t.Fatal("mwvc-el size line with edge count accepted")
	}
}

func TestReadStreamRejectsWhatReadRejects(t *testing.T) {
	cases := []string{
		"",
		"bogus 1\n2 1\ne 0 1\n",
		"mwvc-graph 1\n3 2\ne 0 1\n",        // count mismatch
		"mwvc-graph 1\n2 2\ne 0 1\ne 1 0\n", // dedup mismatch vs header
		"mwvc-graph 1\n2 1\ne 0 0\n",        // self-loop
		"mwvc-graph 1\n2 1\ne 0 7\n",        // out of range
		"mwvc-el 1\n2\nw 9 1.5\ne 0 1\n",    // weight vertex out of range
		// Ids beyond int32 must be rejected, not silently truncated by the
		// Vertex cast (4294967297 ≡ 1 mod 2^32 would otherwise parse as 1).
		"mwvc-el 1\n10\ne 4294967297 2\n",
		"mwvc-el 1\n10\nw 4294967299 5\ne 0 1\n",
	}
	for _, in := range cases {
		r := strings.NewReader(in)
		if _, err := ReadStream(r, r.Size()); err == nil {
			t.Fatalf("ReadStream accepted malformed input %q", in)
		}
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("Read accepted malformed input %q", in)
		}
	}
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: (%d,%d) vs (%d,%d)", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Weight(Vertex(v)) != b.Weight(Vertex(v)) {
			t.Fatalf("weight of %d differs: %v vs %v", v, a.Weight(Vertex(v)), b.Weight(Vertex(v)))
		}
	}
	for e := 0; e < a.NumEdges(); e++ {
		au, av := a.Edge(EdgeID(e))
		bu, bv := b.Edge(EdgeID(e))
		if au != bu || av != bv {
			t.Fatalf("edge %d differs: (%d,%d) vs (%d,%d)", e, au, av, bu, bv)
		}
	}
}
