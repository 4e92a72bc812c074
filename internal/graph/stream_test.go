package graph

import (
	"bytes"
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

// TestReadStreamMatchesRead pins that the two-pass CSR path and the one-pass
// Builder path parse every input to the identical graph, for both formats.
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

	// ReadStream sizes its CSR arrays once and keeps its edge records in
	// fixed blocks, where Read's Builder grows its pending edge list by
	// appending, so on an input large enough to grow that list the
	// streaming path allocates fewer objects.
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, randomGraph(7, 5000, 40000)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	read := testing.AllocsPerRun(3, func() { Read(bytes.NewReader(data)) })
	stream := testing.AllocsPerRun(3, func() {
		r := bytes.NewReader(data)
		ReadStream(r, r.Size())
	})
	if stream >= read {
		t.Fatalf("ReadStream allocates %v objects per read, not below Read's %v", stream, read)
	}
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
