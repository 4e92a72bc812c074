package graph

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := randomGraph(123, 50, 300)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed sizes: (%d,%d) vs (%d,%d)",
			h.NumVertices(), h.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if h.Weight(Vertex(v)) != g.Weight(Vertex(v)) {
			t.Fatalf("weight of %d changed: %v vs %v", v, h.Weight(Vertex(v)), g.Weight(Vertex(v)))
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		u1, v1 := g.Edge(EdgeID(e))
		u2, v2 := h.Edge(EdgeID(e))
		if u1 != u2 || v1 != v2 {
			t.Fatalf("edge %d changed: (%d,%d) vs (%d,%d)", e, u1, v1, u2, v2)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsBadHeader(t *testing.T) {
	if _, err := Read(strings.NewReader("not-a-graph\n1 0\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadRejectsEdgeCountMismatch(t *testing.T) {
	in := "mwvc-graph 1\n3 2\ne 0 1\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("edge-count mismatch accepted")
	}
}

func TestReadRejectsMalformedRecords(t *testing.T) {
	cases := []string{
		"mwvc-graph 1\n2 1\ne 0\n",
		"mwvc-graph 1\n2 1\nq 0 1\n",
		"mwvc-graph 1\n2 1\ne 0 x\n",
		"mwvc-graph 1\n2 1\nw 5 1.0\ne 0 1\n",
		"mwvc-graph 1\n2 1\nw 0 oops\ne 0 1\n",
		"mwvc-graph 1\n-1 0\n",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("malformed input accepted: %q", in)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\nmwvc-graph 1\n\n2 1\n# another\nw 0 2.5\ne 0 1\n\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 || g.Weight(0) != 2.5 {
		t.Fatalf("parsed wrong graph: %v w0=%v", g, g.Weight(0))
	}
}

func TestWriteEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 0 || h.NumEdges() != 0 {
		t.Fatal("empty graph round trip failed")
	}
}

func TestReadRejectsDuplicateEdgesVsHeader(t *testing.T) {
	// Header says 2 edges but they dedup to 1.
	in := "mwvc-graph 1\n2 2\ne 0 1\ne 1 0\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("dedup mismatch accepted")
	}
}

// failingReader yields data, then fails with err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// failingReaderAt serves data and fails with err at every offset past it.
type failingReaderAt struct {
	data []byte
	err  error
}

func (r failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(r.data)) {
		return 0, r.err
	}
	n := copy(p, r.data[off:])
	if n < len(p) {
		return n, r.err
	}
	return n, nil
}

// TestReadReportsReaderError pins that a failing input is reported as its
// own error, wrapped, wherever it cuts the input: before the size line
// ends, mid-record, or between records. A record cut short is never
// parsed.
func TestReadReportsReaderError(t *testing.T) {
	boom := errors.New("boom")
	for _, in := range []string{
		"mwvc-el 1\n",
		"mwvc-el 1\n1",
		"mwvc-el 1\n3\ne 0",
		"mwvc-el 1\n3\ne 0 1\n",
		"mwvc-graph 1\n3 2\ne 0 1\ne 1",
	} {
		if _, err := Read(&failingReader{data: []byte(in), err: boom}); !errors.Is(err, boom) {
			t.Errorf("Read(%q, then a read error) = %v, want the read error", in, err)
		}
		for _, p := range []int{0, 1, 2, 7} {
			r := failingReaderAt{data: []byte(in), err: boom}
			if _, err := readStream(r, int64(len(in))+64, p); !errors.Is(err, boom) {
				t.Errorf("%d chunks (%q, then a read error) = %v, want the read error", p, in, err)
			}
		}
	}

	// The upload path: an over-limit body cut mid-record must still reach
	// serve's errors.As check for the 413 response.
	body := io.NopCloser(strings.NewReader("mwvc-el 1\n3\ne 0 1\ne 1 2\n"))
	_, err := Read(http.MaxBytesReader(nil, body, 21))
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		t.Errorf("Read over the byte limit = %v, want an *http.MaxBytesError", err)
	}
}

// longInput is the prefix followed by digits up to size bytes, generated
// on demand.
type longInput struct {
	prefix string
	size   int64
	off    int64 // Read's position
}

func (in *longInput) ReadAt(p []byte, off int64) (int, error) {
	if off >= in.size {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), in.size-off)]
	for i := range p {
		if o := off + int64(i); o < int64(len(in.prefix)) {
			p[i] = in.prefix[o]
		} else {
			p[i] = '7'
		}
	}
	return len(p), nil
}

func (in *longInput) Read(p []byte) (int, error) {
	n, err := in.ReadAt(p, in.off)
	in.off += int64(n)
	return n, err
}

// TestReadReportsOverlongSizeLine pins that a line over the length cap is
// reported as bufio.ErrTooLong, not as a missing size line.
func TestReadReportsOverlongSizeLine(t *testing.T) {
	in := &longInput{prefix: "mwvc-el 1\n", size: maxLineSize + 1<<10}
	if _, err := Read(in); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("Read = %v, want bufio.ErrTooLong", err)
	}
	if _, err := ReadStream(in, in.size); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("ReadStream = %v, want bufio.ErrTooLong", err)
	}
}
