package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
)

// Two line-oriented text formats are supported (specified in
// docs/FORMATS.md):
//
//	mwvc-graph 1          canonical format, written by Write
//	<n> <m>
//	w <v> <weight>        (one line per vertex whose weight differs from 1)
//	e <u> <v>             (one line per undirected edge)
//
//	mwvc-el 1             streaming edge-list format, written by WriteEdgeList
//	<n>
//	w <v> <weight>        (w and e records in any order)
//	e <u> <v>
//
// The canonical format declares the exact post-dedup edge count up front and
// Read enforces it; the edge-list format omits it so producers can stream
// edges without knowing the final count (duplicates are merged on read).
// Weights are written with full float64 round-trip precision. Both formats
// are deliberately simple so instances can be produced or inspected with
// standard text tools.

const (
	formatHeader   = "mwvc-graph 1"
	elFormatHeader = "mwvc-el 1"
)

// Write serializes g in the canonical "mwvc-graph 1" text format. The output
// is deterministic — header, weights in vertex order, edges in edge-id order
// — which is what makes it usable as the content-hash preimage of the serve
// store. The writer allocates one small scratch buffer regardless of graph
// size.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 64)
	buf = append(buf, formatHeader...)
	buf = append(buf, '\n')
	buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(g.NumEdges()), 10)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	if err := writeRecords(bw, g, buf); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteEdgeList serializes g in the streaming "mwvc-el 1" text format (no
// edge count in the header). Readable back by Read and ReadStream.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 64)
	buf = append(buf, elFormatHeader...)
	buf = append(buf, '\n')
	buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	if err := writeRecords(bw, g, buf); err != nil {
		return err
	}
	return bw.Flush()
}

// writeRecords emits the weight and edge records shared by both formats.
func writeRecords(bw *bufio.Writer, g *Graph, buf []byte) error {
	for v := 0; v < g.NumVertices(); v++ {
		if wt := g.Weight(Vertex(v)); wt != 1 {
			buf = append(buf[:0], 'w', ' ')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, wt, 'g', -1, 64)
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	ep := g.EdgeEndpoints()
	for i := 0; i < len(ep); i += 2 {
		buf = append(buf[:0], 'e', ' ')
		buf = strconv.AppendInt(buf, int64(ep[i]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(ep[i+1]), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

const (
	// lineBufSize is the initial size of a line reader's buffer, which
	// doubles for longer lines up to maxLineSize.
	lineBufSize = 64 << 10
	// maxLineSize caps the length of one line; a longer line fails with
	// bufio.ErrTooLong.
	maxLineSize = 64 << 20
)

// lineReader splits an input into lines through one reused buffer.
type lineReader struct {
	r    io.Reader
	buf  []byte
	i, j int   // buf[i:j] is read but not yet returned
	scan int   // buf[i:scan] holds no '\n'
	off  int64 // input offset of buf[i]
	eof  bool
}

// reset points lr at r, whose first byte is at input offset off, keeping
// the buffer.
func (lr *lineReader) reset(r io.Reader, off int64) {
	buf := lr.buf
	if buf == nil {
		buf = make([]byte, lineBufSize)
	}
	*lr = lineReader{r: r, buf: buf, off: off}
}

// next returns the next line without its "\n" or "\r\n" ending, valid until
// the following call, and io.EOF after the last line. A last line without
// "\n" is a line. Any other read error ends the input and is returned
// wrapped; the line it cut short is never returned.
func (lr *lineReader) next() ([]byte, error) {
	for {
		if k := bytes.IndexByte(lr.buf[lr.scan:lr.j], '\n'); k >= 0 {
			end := lr.scan + k
			return lr.take(end, end+1), nil
		}
		lr.scan = lr.j
		if lr.eof {
			if lr.i == lr.j {
				return nil, io.EOF
			}
			return lr.take(lr.j, lr.j), nil
		}
		if err := lr.fill(); err != nil {
			return nil, err
		}
	}
}

// take returns buf[i:end] minus a trailing '\r' and consumes up to next.
func (lr *lineReader) take(end, next int) []byte {
	line := lr.buf[lr.i:end]
	lr.off += int64(next - lr.i)
	lr.i, lr.scan = next, next
	if k := len(line) - 1; k >= 0 && line[k] == '\r' {
		line = line[:k]
	}
	return line
}

// fill reads more input behind the unreturned bytes, moving them to the
// front of the buffer and growing it when one line fills it.
func (lr *lineReader) fill() error {
	if lr.i > 0 {
		lr.j = copy(lr.buf, lr.buf[lr.i:lr.j])
		lr.scan -= lr.i
		lr.i = 0
	}
	if lr.j == len(lr.buf) {
		if len(lr.buf) >= maxLineSize {
			return fmt.Errorf("graph: line longer than %d bytes: %w", maxLineSize, bufio.ErrTooLong)
		}
		buf := make([]byte, min(2*len(lr.buf), maxLineSize))
		copy(buf, lr.buf[:lr.j])
		lr.buf = buf
	}
	// Like bufio.Scanner, give up on a reader that keeps returning nothing.
	for range 100 {
		n, err := lr.r.Read(lr.buf[lr.j:])
		lr.j += n
		if err == io.EOF {
			lr.eof = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("graph: reading input: %w", err)
		}
		if n > 0 {
			return nil
		}
	}
	return fmt.Errorf("graph: reading input: %w", io.ErrNoProgress)
}

// content returns the next line that is neither blank nor a '#' comment,
// with surrounding white space trimmed.
func (lr *lineReader) content() ([]byte, error) {
	for {
		line, err := lr.next()
		if err != nil {
			return nil, err
		}
		if b := bytes.TrimSpace(line); len(b) != 0 && b[0] != '#' {
			return b, nil
		}
	}
}

// readHead parses the header and size lines. m is -1 for the edge-list
// format, which declares no edge count.
func readHead(lr *lineReader) (n, m int, err error) {
	hdr, err := lr.content()
	if err == io.EOF {
		return 0, 0, errors.New("graph: empty input")
	}
	if err != nil {
		return 0, 0, err
	}
	var haveM bool
	switch {
	case bytes.Equal(hdr, []byte(formatHeader)):
		haveM = true
	case bytes.Equal(hdr, []byte(elFormatHeader)):
		haveM = false
	default:
		return 0, 0, fmt.Errorf("graph: bad header %q, want %q or %q", hdr, formatHeader, elFormatHeader)
	}
	sizes, err := lr.content()
	if err == io.EOF {
		return 0, 0, errors.New("graph: missing size line")
	}
	if err != nil {
		return 0, 0, err
	}
	var f0, f1, f2 []byte
	nf, err := splitFields3(sizes, &f0, &f1, &f2)
	if err != nil {
		return 0, 0, fmt.Errorf("graph: bad size line %q", sizes)
	}
	var n64, m64 int64
	var ok bool
	if haveM {
		if nf != 2 {
			return 0, 0, fmt.Errorf("graph: bad size line %q, want \"<n> <m>\"", sizes)
		}
		if n64, ok = parseInt(f0); !ok {
			return 0, 0, fmt.Errorf("graph: bad size line %q", sizes)
		}
		if m64, ok = parseInt(f1); !ok {
			return 0, 0, fmt.Errorf("graph: bad size line %q", sizes)
		}
	} else {
		if nf != 1 {
			return 0, 0, fmt.Errorf("graph: bad size line %q, want \"<n>\"", sizes)
		}
		if n64, ok = parseInt(f0); !ok {
			return 0, 0, fmt.Errorf("graph: bad size line %q", sizes)
		}
	}
	if n64 < 0 || m64 < 0 {
		return 0, 0, fmt.Errorf("graph: negative sizes in %q", sizes)
	}
	// Vertex ids are int32, so a header declaring more vertices than int32
	// can address is unusable — and sizing builder arrays from it would turn
	// a hostile one-line header into a multi-gigabyte allocation.
	if n64 > math.MaxInt32 {
		return 0, 0, fmt.Errorf("graph: vertex count %d exceeds the int32 id space", n64)
	}
	if !haveM {
		m64 = -1
	}
	return int(n64), int(m64), nil
}

// record is one body record: an edge {u, v}, or weight w for vertex u.
type record struct {
	edge bool
	u, v Vertex
	w    float64
}

// nextRecord returns the next body record, skipping blank and comment lines,
// and io.EOF after the last. Vertex ranges are the caller's to check. Lines
// in the form WriteEdgeList emits take parseEdge and parseWeight; any other
// line, and one whose weight strconv.ParseFloat rejects, takes parseRecord.
func (lr *lineReader) nextRecord() (record, error) {
	for {
		// Most lines are plain edge records: parse one straight from the
		// buffer when its line ending is there too.
		b := lr.buf[lr.i:lr.j]
		if u, v, k := parseEdge(b); k > 0 {
			if k < len(b) && b[k] == '\r' {
				k++
			}
			if k < len(b) && b[k] == '\n' {
				lr.take(lr.i+k, lr.i+k+1)
				return record{edge: true, u: u, v: v}, nil
			}
		}
		line, err := lr.next()
		if err != nil {
			return record{}, err
		}
		if u, v, k := parseEdge(line); k > 0 && k == len(line) {
			return record{edge: true, u: u, v: v}, nil
		}
		if v, k := parseWeight(line); k > 0 {
			if w, err := strconv.ParseFloat(string(line[k:]), 64); err == nil {
				return record{u: v, w: w}, nil
			}
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		return parseRecord(line)
	}
}

// parseEdge parses the start of b as the line WriteEdgeList emits for an
// edge — "e", blanks, up to 10 digits, blanks, up to 10 digits, with both
// ids at most MaxInt32 — in one pass over its bytes, and returns the offset
// after the second id, or 0 when b does not start so. A line is such a
// record when that offset is its end; other lines take parseWeight or
// parseRecord, which yields the same edge for every line accepted here.
func parseEdge(b []byte) (u, v Vertex, end int) {
	if len(b) < 5 || b[0] != 'e' {
		return 0, 0, 0
	}
	var ids [2]Vertex
	i := 1
	for k := range ids {
		blanks := i
		for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
			i++
		}
		digits := i
		var x uint64
		for i < len(b) {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			x = x*10 + uint64(d)
			i++
		}
		// x may have wrapped past 10 digits, which reject the id anyway.
		if digits == blanks || i == digits || i-digits > 10 || x > math.MaxInt32 {
			return 0, 0, 0
		}
		ids[k] = Vertex(x)
	}
	return ids[0], ids[1], i
}

// parseWeight parses line, a whole line, as the line WriteEdgeList emits for
// a weight — "w", blanks, up to 10 digits at most MaxInt32, blanks, then one
// more field, without blanks, to the end of the line — and returns the
// vertex and the offset of that field, or 0 when line is not such a record.
// parseRecord splits every line accepted here into the same three fields,
// so where strconv.ParseFloat accepts the last one, both yield the same
// record.
func parseWeight(line []byte) (v Vertex, field int) {
	if len(line) < 5 || line[0] != 'w' {
		return 0, 0
	}
	i := 1
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	digits := i
	var x uint64
	for i < len(line) && line[i]-'0' <= 9 {
		x = x*10 + uint64(line[i]-'0')
		i++
	}
	blanks := i
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	// x may have wrapped past 10 digits, which reject the id anyway.
	if digits == 1 || blanks == digits || blanks-digits > 10 || x > math.MaxInt32 ||
		i == blanks || i == len(line) || bytes.ContainsAny(line[i:], " \t") {
		return 0, 0
	}
	return Vertex(x), i
}

// parseRecord parses a trimmed, nonblank, noncomment body line.
func parseRecord(line []byte) (record, error) {
	var f0, f1, f2 []byte
	nf, err := splitFields3(line, &f0, &f1, &f2)
	if err != nil || nf != 3 {
		return record{}, fmt.Errorf("graph: bad record %q", line)
	}
	switch {
	case len(f0) == 1 && f0[0] == 'e':
		// Vertex must fit int32 before the cast; ids beyond that would
		// silently truncate. The [0, n) range check is the caller's job.
		u, ok1 := parseInt(f1)
		v, ok2 := parseInt(f2)
		if !ok1 || !ok2 || u > math.MaxInt32 || v > math.MaxInt32 || u < math.MinInt32 || v < math.MinInt32 {
			return record{}, fmt.Errorf("graph: bad endpoint in %q", line)
		}
		return record{edge: true, u: Vertex(u), v: Vertex(v)}, nil
	case len(f0) == 1 && f0[0] == 'w':
		v, ok1 := parseInt(f1)
		if !ok1 || v > math.MaxInt32 || v < math.MinInt32 {
			return record{}, fmt.Errorf("graph: bad vertex in %q", line)
		}
		wt, err := strconv.ParseFloat(string(f2), 64)
		if err != nil {
			return record{}, fmt.Errorf("graph: bad weight in %q: %w", line, err)
		}
		return record{u: Vertex(v), w: wt}, nil
	default:
		return record{}, fmt.Errorf("graph: unknown record %q", line)
	}
}

// checkWeightVertex reports a weight record for a vertex outside [0, n).
func checkWeightVertex(n int, v Vertex) error {
	if v < 0 || int(v) >= n {
		return fmt.Errorf("graph: weight vertex %d out of range [0,%d)", v, n)
	}
	return nil
}

// splitFields3 splits line on ASCII whitespace into at most three fields
// without allocating. It returns the field count, or an error for more than
// three fields.
func splitFields3(line []byte, f0, f1, f2 *[]byte) (int, error) {
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		switch n {
		case 0:
			*f0 = line[start:i]
		case 1:
			*f1 = line[start:i]
		case 2:
			*f2 = line[start:i]
		default:
			return n, fmt.Errorf("too many fields")
		}
		n++
	}
	return n, nil
}

// parseInt parses a decimal integer (with optional leading '-') from b
// without allocating.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i = 1
		if len(b) == 1 {
			return 0, false
		}
	}
	var x int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if x > (1<<62)/10 {
			return 0, false
		}
		x = x*10 + int64(c-'0')
	}
	if neg {
		x = -x
	}
	return x, true
}

// Read parses a graph in either text format from a one-shot stream, such as
// a network body or a pipe. It is ReadStream's reader with the whole body as
// one chunk, on the caller's goroutine: the same passes, the same checks and
// the same graph or error text. A read error is returned wrapped.
func Read(r io.Reader) (*Graph, error) {
	chunks := make([]readChunk, 1)
	chunks[0].lines.reset(r, 0)
	n, m, err := readHead(&chunks[0].lines)
	if err != nil {
		return nil, err
	}
	return readChunks(chunks, n, m)
}

// ReadStream parses a graph in either text format from the first size bytes
// of r. It parses the header and size lines serially, then cuts the body
// into P newline-aligned chunks, P = min(GOMAXPROCS, body bytes / 1 MiB,
// 1 + size/(8n)), at least 1, and reads each chunk on its own goroutine but
// the first, which runs on the caller's and continues the header's line
// reader, so every byte is read once. Pass 1 parses the chunk: it counts
// degrees, collects weights and keeps the chunk's edge records in a buffer
// of its own. Pass 2 places those records at their final CSR positions (see
// CSRBuilder). The graph is the same for every P, and a later weight record
// for a vertex overrides an earlier one, in file order. Among several
// malformed lines, the first in file order is the one reported.
//
// Each pass ends when its slowest chunk does, so a chunk whose core is
// taken by the garbage collector's background marking, another goroutine
// or another process holds up the whole read; with a chunk on every core,
// nothing is left over to absorb that.
//
// The record buffers cost 8 bytes per edge record, in blocks that double
// from 4 Ki to 64 Ki records, and each block is dropped as soon as pass 2
// has placed it, so they are garbage before Build allocates the graph's
// edge ids and endpoints (16 bytes per edge). Beyond the final graph and
// the buffers, the read holds one n-sized scratch array, plus two n-sized
// arrays per chunk after the first, which the bound on P keeps within the
// input's own size.
func ReadStream(r io.ReaderAt, size int64) (*Graph, error) {
	return readStream(r, size, 0)
}

const (
	// chunkBytes is the least body a ReadStream chunk is given.
	chunkBytes = 1 << 20
	// firstBlockRecords and blockRecords bound the blocks of a chunk's
	// record buffer: each block holds twice the records of the one before,
	// from 4 Ki (32 KiB) up to 64 Ki (512 KiB). The buffer grows by whole
	// blocks, so no record is ever copied, and a small input pays for no
	// large block.
	firstBlockRecords = 4 << 10
	blockRecords      = 64 << 10
)

// chunkCount is ReadStream's P for an input of size bytes whose body starts
// at offset body and whose size line declares n vertices.
func chunkCount(n int, body, size int64) int {
	p := min(int64(runtime.GOMAXPROCS(0)), (size-body)/chunkBytes)
	if n > 0 {
		p = min(p, 1+size/(8*int64(n)))
	}
	return int(max(p, 1))
}

// readStream is ReadStream cutting the body into p chunks; p ≤ 0 derives
// the count from the input.
func readStream(r io.ReaderAt, size int64, p int) (*Graph, error) {
	var head lineReader
	head.reset(io.NewSectionReader(r, 0, size), 0)
	n, m, err := readHead(&head)
	if err != nil {
		return nil, err
	}
	if p <= 0 {
		p = chunkCount(n, head.off, size)
	}
	cuts, err := chunkCuts(r, head.off, size, p)
	if err != nil {
		return nil, err
	}
	chunks := make([]readChunk, p)
	chunks[0].lines = head
	chunks[0].lines.endAt(r, cuts[1])
	for k := 1; k < p; k++ {
		chunks[k].lines.reset(io.NewSectionReader(r, cuts[k], cuts[k+1]-cuts[k]), cuts[k])
	}
	return readChunks(chunks, n, m)
}

// endAt ends lr's input at offset end of src, the input lr has read so far,
// and reads the bytes it has not buffered yet from src directly. lr stands
// at a line start at or before end.
func (lr *lineReader) endAt(src io.ReaderAt, end int64) {
	read := lr.off + int64(lr.j-lr.i) // the input offset of buf[j]
	if read < end {
		lr.r = io.NewSectionReader(src, read, end-read)
		return
	}
	// A long line has pulled bytes past end into the buffer.
	lr.j -= int(read - end)
	lr.eof = true
}

// readChunks reads a graph on n vertices, declaring m edges (-1 for none),
// from the body chunks, each of whose line readers stands at its first
// line: pass 1 on every chunk, the edge-count check, the weights of later
// chunks, pass 2 on every chunk, Build and the dedup check.
func readChunks(chunks []readChunk, n, m int) (*Graph, error) {
	c := NewCSRBuilder(n)
	parts := make([]*csrPart, len(chunks))
	for k := range chunks {
		ck := &chunks[k]
		if k == 0 {
			ck.part = &c.whole
		} else {
			ck.part = &csrPart{deg: make([]uint32, n)}
		}
		parts[k] = ck.part
	}
	if err := eachChunk(chunks, func(k int, ck *readChunk) error { return ck.parse(c, k == 0) }); err != nil {
		return nil, err
	}
	var counted int64
	for _, part := range parts {
		counted += part.counted
	}
	if m >= 0 && counted != int64(m) {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", m, counted)
	}
	for _, ck := range chunks[1:] {
		for _, rec := range ck.weights {
			c.SetWeight(rec.v, rec.w)
		}
	}
	if err := c.endCountParts(parts); err != nil {
		return nil, err
	}
	if err := eachChunk(chunks, func(_ int, ck *readChunk) error { return ck.fill(c) }); err != nil {
		return nil, err
	}
	g, err := c.Build()
	if err != nil {
		return nil, err
	}
	if m >= 0 && g.NumEdges() != m {
		return nil, fmt.Errorf("graph: %d edges after dedup, header declares %d", g.NumEdges(), m)
	}
	return g, nil
}

// readChunk is one newline-aligned range of a body and the state its two
// passes share.
type readChunk struct {
	lines lineReader
	part  *csrPart
	// edges holds the chunk's edge records in file order, in blocks of at
	// most blockRecords, from pass 1 until pass 2 places them.
	edges [][][2]Vertex
	// weights holds the weight records of every chunk but the first. They
	// are applied in chunk order once pass 1 is done, after the first
	// chunk's, so the last record in file order wins.
	weights []weightRecord
}

type weightRecord struct {
	v Vertex
	w float64
}

// parse is pass 1 over the chunk: degrees into its part, edge records into
// ck.edges, and weights into the builder for the first chunk and into
// ck.weights for the others.
func (ck *readChunk) parse(c *CSRBuilder, first bool) error {
	var block [][2]Vertex
	for {
		rec, err := ck.lines.nextRecord()
		if err != nil {
			if len(block) > 0 {
				ck.edges = append(ck.edges, block)
			}
			return eofIsNil(err)
		}
		if rec.edge {
			if err := c.countPart(ck.part, rec.u, rec.v); err != nil {
				return err
			}
			if len(block) == cap(block) {
				if len(block) > 0 {
					ck.edges = append(ck.edges, block)
				}
				block = make([][2]Vertex, 0, min(max(2*cap(block), firstBlockRecords), blockRecords))
			}
			block = append(block, [2]Vertex{rec.u, rec.v})
			continue
		}
		if err := checkWeightVertex(c.n, rec.u); err != nil {
			return err
		}
		if first {
			c.SetWeight(rec.u, rec.w)
		} else {
			ck.weights = append(ck.weights, weightRecord{rec.u, rec.w})
		}
	}
}

// fill is pass 2 over the chunk: every edge record into its part's slots,
// dropping each block once it is placed.
func (ck *readChunk) fill(c *CSRBuilder) error {
	for i, block := range ck.edges {
		for _, e := range block {
			if err := c.fillPart(ck.part, e[0], e[1]); err != nil {
				return err
			}
		}
		ck.edges[i] = nil
	}
	ck.edges = nil
	return nil
}

func eofIsNil(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// eachChunk runs f on every chunk, each but the first on a goroutine of its
// own, and returns the error of the lowest-numbered chunk that failed. A
// chunk stops at its first error, so that is the first error in file order.
func eachChunk(chunks []readChunk, f func(k int, ck *readChunk) error) error {
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for k := 1; k < len(chunks); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = f(k, &chunks[k])
		}()
	}
	errs[0] = f(0, &chunks[0])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkCuts cuts the body [lo, hi) into p ranges of about equal size that
// each start at a line start: cut k is the first line start at or after
// lo + k(hi-lo)/p.
func chunkCuts(r io.ReaderAt, lo, hi int64, p int) ([]int64, error) {
	cuts := make([]int64, p+1)
	cuts[0], cuts[p] = lo, hi
	var buf []byte
	for k := 1; k < p; k++ {
		// The byte before a line start is the '\n' that ends the line
		// before it (lo-1 ends the size line).
		at := max(lo+(hi-lo)*int64(k)/int64(p), cuts[k-1]) - 1
		cuts[k] = hi
		for at < hi {
			if buf == nil {
				buf = make([]byte, 4<<10)
			}
			n, err := r.ReadAt(buf[:min(int64(len(buf)), hi-at)], at)
			if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
				cuts[k] = at + int64(i) + 1
				break
			}
			at += int64(n)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("graph: reading input: %w", err)
			}
		}
	}
	return cuts, nil
}

// OpenFile reads a graph file (either text format) through ReadStream.
func OpenFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadStream(f, st.Size())
}
