package graph

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// chunkCounts are the explicit chunk counts the chunked reader is checked
// at; 64 leaves most chunks of a small input empty or one line long.
var chunkCounts = []int{1, 2, 3, 7, 64}

// outcome renders a read's result for comparison: the error text, or the
// graph's sizes, weight bits and edge endpoints in id order.
func outcome(g *Graph, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d\nweights", g.NumVertices(), g.NumEdges())
	for _, w := range g.Weights() {
		fmt.Fprintf(&b, " %x", math.Float64bits(w))
	}
	b.WriteString("\nendpoints")
	for _, x := range g.EdgeEndpoints() {
		fmt.Fprintf(&b, " %d", x)
	}
	return b.String()
}

// readOutcomes reads data through Read, ReadStream and the chunked reader at
// every count in chunkCounts and checks that all agree; it returns the
// common outcome.
func readOutcomes(t *testing.T, name string, data []byte) string {
	t.Helper()
	want := outcome(Read(bytes.NewReader(data)))
	r := bytes.NewReader(data)
	if got := outcome(ReadStream(r, r.Size())); got != want {
		t.Fatalf("%s: ReadStream disagrees with Read:\n got %.300s\nwant %.300s", name, got, want)
	}
	for _, p := range chunkCounts {
		if got := outcome(readStream(r, r.Size(), p)); got != want {
			t.Fatalf("%s: %d chunks disagree with Read:\n got %.300s\nwant %.300s", name, p, got, want)
		}
	}
	return want
}

// decorate rewrites a serialized graph with the lexical freedom the formats
// allow: comment and blank lines, CRLF endings, tabs and runs of blanks
// between fields, white space around a line, and leading zeros.
func decorate(data []byte) []byte {
	b := bytes.NewBufferString("# comment\n\n")
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		switch {
		case i < 2: // header and size line
		case i%5 == 0:
			b.WriteString("# comment\n\n")
			line = strings.ReplaceAll(line, " ", "\t")
		case i%5 == 1:
			line = strings.ReplaceAll(line, " ", " \t ")
		case i%5 == 2:
			line = "  " + line + " \t"
		case i%5 == 3:
			line = strings.Replace(line, "e ", "e 000", 1)
		}
		b.WriteString(line)
		if i%2 == 0 {
			b.WriteString("\r")
		}
		b.WriteString("\n")
	}
	return b.Bytes()
}

// readCase is one input of the reader tests. want, when not empty, is the
// outcome the input must parse to.
type readCase struct{ name, data, want string }

// readCases returns inputs exercising every lexical and structural rule of
// the formats, well-formed and malformed.
func readCases(t *testing.T) []readCase {
	var cases []readCase
	for seed := uint64(1); seed <= 4; seed++ {
		g := randomGraph(seed, 40+int(seed)*30, 150*int(seed))
		var canon, el bytes.Buffer
		if err := Write(&canon, g); err != nil {
			t.Fatal(err)
		}
		if err := WriteEdgeList(&el, g); err != nil {
			t.Fatal(err)
		}
		name, want := fmt.Sprintf("random-%d/", seed), outcome(g, nil)
		cases = append(cases,
			readCase{name + "mwvc-graph", canon.String(), want},
			readCase{name + "mwvc-el", el.String(), want},
			readCase{name + "decorated", string(decorate(el.Bytes())), want},
			readCase{name + "no-final-newline", strings.TrimSuffix(el.String(), "\n"), want})
	}

	// Weight records for vertex 3 throughout the body, so that at every
	// chunk count above 1 several chunks hold one: the last in file order
	// wins.
	var spread strings.Builder
	spread.WriteString("mwvc-el 1\n50\n")
	b := NewBuilder(50)
	for i := 0; i < 400; i++ {
		if i%40 == 0 {
			fmt.Fprintf(&spread, "w 3 %d.5\n", 1+i/40)
		}
		u, v := Vertex(i%50), Vertex((i*7+1)%50)
		fmt.Fprintf(&spread, "e %d %d\n", u, v)
		b.AddEdge(u, v)
	}
	cases = append(cases,
		readCase{"weights-in-every-chunk", spread.String(), outcome(b.SetWeight(3, 10.5).Build())},
		readCase{"digits-10-11", "mwvc-el 1\n5\ne 0000000001 0000000002\ne 00000000003 4\nw 00000000004 2.5\ne 3 0000000000\n",
			outcome(FromEdgeList(5, [][2]Vertex{{1, 2}, {3, 4}, {3, 0}}, []float64{1, 1, 1, 1, 2.5}))},
		readCase{"id-2^31-1", "mwvc-el 1\n5\ne 2147483647 1\n", ""},
		readCase{"id-2^31", "mwvc-el 1\n5\ne 2147483648 1\n", ""},
		readCase{"id-2^31-second", "mwvc-el 1\n5\ne 1 2147483648\n", ""},
		readCase{"id-11-digits-large", "mwvc-el 1\n5\ne 1 99999999999\n", ""},
		readCase{"negative-id", "mwvc-el 1\n5\ne -1 2\n", ""},
		readCase{"first-error-in-file-order", "mwvc-el 1\n5\ne 0 1\ne 1 2\ne 2 9\ne 3 4\nq 1 2\ne 1 1\n",
			"error: graph: edge (2,9) has endpoint out of range [0,5)"},
		readCase{"weight-forms", "mwvc-el 1\n6\nw 0 2.5e1\nw 1 +3\nw\t2\t0004.25\nw 0000000003 1E-1\r\nw 4 7 \nw 5 0x1p-2\ne 0 1\ne 2 3\n",
			outcome(FromEdgeList(6, [][2]Vertex{{0, 1}, {2, 3}}, []float64{25, 3, 4.25, 0.1, 7, 0.25}))},
	)

	// Weight records the one-pass weight parse hands to the general parser,
	// which rejects them.
	for i, rec := range []string{"w 1 1.5x", "w 1 .", "w 1 1e999", "w 1 -2", "w 1 inf", "w 1 5 6",
		"w1 2.5", "w 1", "w 12345678901 5", "w 2147483648 5", "w -1 5"} {
		cases = append(cases, readCase{fmt.Sprintf("malformed-weight-%02d", i), "mwvc-el 1\n3\ne 0 1\n" + rec + "\ne 1 2\n", ""})
	}

	// Every malformed input of io_test.go and stream_test.go.
	for i, in := range []string{
		"not-a-graph\n1 0\n",
		"",
		"mwvc-graph 1\n3 2\ne 0 1\n",
		"mwvc-graph 1\n2 1\ne 0\n",
		"mwvc-graph 1\n2 1\nq 0 1\n",
		"mwvc-graph 1\n2 1\ne 0 x\n",
		"mwvc-graph 1\n2 1\nw 5 1.0\ne 0 1\n",
		"mwvc-graph 1\n2 1\nw 0 oops\ne 0 1\n",
		"mwvc-graph 1\n-1 0\n",
		"mwvc-graph 1\n2 2\ne 0 1\ne 1 0\n",
		"mwvc-el 1\n3 2\ne 0 1\n",
		"bogus 1\n2 1\ne 0 1\n",
		"mwvc-graph 1\n2 1\ne 0 0\n",
		"mwvc-graph 1\n2 1\ne 0 7\n",
		"mwvc-el 1\n2\nw 9 1.5\ne 0 1\n",
		"mwvc-el 1\n10\ne 4294967297 2\n",
		"mwvc-el 1\n10\nw 4294967299 5\ne 0 1\n",
	} {
		cases = append(cases, readCase{fmt.Sprintf("malformed-%02d", i), in, ""})
	}
	return cases
}

// TestChunkedReadMatchesRead pins that the chunked reader parses every
// input to the same graph, or fails with the same error text, at every
// chunk count, and that both agree with the serial Read.
func TestChunkedReadMatchesRead(t *testing.T) {
	for _, c := range readCases(t) {
		got := readOutcomes(t, c.name, []byte(c.data))
		malformed := strings.HasPrefix(c.name, "malformed") || strings.HasPrefix(c.name, "id-")
		switch {
		case c.want != "" && got != c.want:
			t.Errorf("%s: got %.300s\nwant %.300s", c.name, got, c.want)
		case malformed && !strings.HasPrefix(got, "error: "):
			t.Errorf("%s: malformed input accepted", c.name)
		}
	}
}

// TestRecordStreamMatchesReference pins the line reader's record stream,
// one-pass edge and weight parses included, to the reference scanner's on
// every input of the reader tests.
func TestRecordStreamMatchesReference(t *testing.T) {
	for _, c := range readCases(t) {
		want, wantErr := refTrace([]byte(c.data))
		got, gotErr := streamTrace([]byte(c.data))
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: got %.200q, %v\nwant %.200q, %v", c.name, got, gotErr, want, wantErr)
		}
	}
}
