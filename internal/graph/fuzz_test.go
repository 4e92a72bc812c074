package graph_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
)

// declaredVertexCount extracts the vertex count an input's size line claims,
// mirroring the scanner's skip rules (blank lines, '#' comments). The fuzz
// harness uses it as an out-of-memory guard: a syntactically valid header
// may declare up to MaxInt32 vertices — which Read would dutifully allocate
// — so inputs whose claim cannot be positively bounded are skipped rather
// than parsed. ok is false when no small bound could be established.
func declaredVertexCount(data []byte) (n int64, ok bool) {
	lines := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		var line []byte
		if nl < 0 {
			line, data = data, nil
		} else {
			line, data = data[:nl], data[nl+1:]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		lines++
		if lines < 2 {
			continue // header line
		}
		f := bytes.Fields(line)
		if len(f) == 0 {
			return 0, false
		}
		var x int64
		for _, c := range f[0] {
			if c < '0' || c > '9' || x > math.MaxInt32 {
				return 0, false
			}
			x = x*10 + int64(c-'0')
		}
		return x, true
	}
	return 0, false
}

// FuzzReadGraph feeds arbitrary bytes through every parse path and pins
// four properties: parsing never panics; the line reader's record stream
// equals the reference bufio.Scanner parser's, record for record and error
// for error; Read and the chunked reader at 1, 2 and 7 chunks yield the same
// graph (weight bits, edge-id order) or the same error text; and any
// accepted graph round-trips through WriteEdgeList→ReadStream
// bit-identically — same serialized bytes, same weight bit patterns.
func FuzzReadGraph(f *testing.F) {
	f.Add([]byte("mwvc-graph 1\n3 2\nw 0 2.5\ne 0 1\ne 1 2\n"))
	f.Add([]byte("mwvc-el 1\n4\ne 0 1\nw 3 0.25\ne 2 3\ne 0 1\n"))
	f.Add([]byte("mwvc-graph 1\n2 1\ne 1 0\n"))
	f.Add([]byte("# comment\nmwvc-el 1\n5\nw 4 1e-3\ne 0 4\n"))
	f.Add([]byte("mwvc-graph 1\n1 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if n, ok := declaredVertexCount(data); !ok || n > 1<<20 {
			t.Skip("vertex-count claim unbounded or over the harness cap")
		}
		want, wantErr := graph.RefTrace(data)
		got, gotErr := graph.StreamTrace(data)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("record stream differs from the reference scanner:\n got %q, %v\nwant %q, %v",
				got, gotErr, want, wantErr)
		}
		g, err := graph.Read(bytes.NewReader(data))
		r := bytes.NewReader(data)
		one := graph.Outcome(graph.ReadStreamChunks(r, r.Size(), 1))
		if got := graph.Outcome(g, err); got != one {
			t.Fatalf("Read disagrees with ReadStream:\n got %.300s\nwant %.300s", got, one)
		}
		for _, p := range []int{2, 7} {
			if got := graph.Outcome(graph.ReadStreamChunks(r, r.Size(), p)); got != one {
				t.Fatalf("%d chunks disagree with one:\n got %.300s\nwant %.300s", p, got, one)
			}
		}
		if err != nil {
			return // rejected cleanly by every path
		}

		// Round-trip: serialize, re-ingest through the streaming path, and
		// serialize again. Accepted inputs must survive bit-identically.
		var first bytes.Buffer
		if err := graph.WriteEdgeList(&first, g); err != nil {
			t.Fatal(err)
		}
		r2 := bytes.NewReader(first.Bytes())
		g2, err := graph.ReadStream(r2, r2.Size())
		if err != nil {
			t.Fatalf("re-reading serialized accepted graph: %v", err)
		}
		var second bytes.Buffer
		if err := graph.WriteEdgeList(&second, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("WriteEdgeList → ReadStream → WriteEdgeList is not a fixed point")
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round-trip changed sizes: n %d→%d m %d→%d",
				g.NumVertices(), g2.NumVertices(), g.NumEdges(), g2.NumEdges())
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, b := g.Weight(graph.Vertex(v)), g2.Weight(graph.Vertex(v))
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("round-trip changed weight of %d: %v → %v", v, a, b)
			}
		}
	})
}
