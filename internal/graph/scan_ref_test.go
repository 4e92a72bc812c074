package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file keeps the single-threaded bufio.Scanner parser that ReadStream
// and Read used before the line reader and the one-pass edge parse
// replaced it, as the reference the record stream is tested against.

// recordSink receives the records of one scan over a graph file. sizes is
// called exactly once (haveM reports whether the format carries an edge
// count); weight and edge are called per record in file order.
type recordSink struct {
	sizes  func(n, m int, haveM bool) error
	weight func(v Vertex, wt float64) error
	edge   func(u, v Vertex) error
}

// scanRecords parses either text format from r, feeding records to s. It
// reads the input in one chunked pass (bufio, no full-file buffer) and
// performs no per-line allocations on the hot edge-record path.
func scanRecords(r io.Reader, s recordSink) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	next := func() ([]byte, bool) {
		for sc.Scan() {
			b := bytes.TrimSpace(sc.Bytes())
			if len(b) != 0 && b[0] != '#' {
				return b, true
			}
		}
		return nil, false
	}
	hdr, ok := next()
	if !ok {
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("graph: empty input")
	}
	var haveM bool
	switch {
	case bytes.Equal(hdr, []byte(formatHeader)):
		haveM = true
	case bytes.Equal(hdr, []byte(elFormatHeader)):
		haveM = false
	default:
		return fmt.Errorf("graph: bad header %q, want %q or %q", hdr, formatHeader, elFormatHeader)
	}
	sizes, ok := next()
	if !ok {
		return fmt.Errorf("graph: missing size line")
	}
	var f0, f1, f2 []byte
	nf, err := splitFields3(sizes, &f0, &f1, &f2)
	if err != nil {
		return fmt.Errorf("graph: bad size line %q", sizes)
	}
	var n, m int64
	if haveM {
		if nf != 2 {
			return fmt.Errorf("graph: bad size line %q, want \"<n> <m>\"", sizes)
		}
		if n, ok = parseInt(f0); !ok {
			return fmt.Errorf("graph: bad size line %q", sizes)
		}
		if m, ok = parseInt(f1); !ok {
			return fmt.Errorf("graph: bad size line %q", sizes)
		}
	} else {
		if nf != 1 {
			return fmt.Errorf("graph: bad size line %q, want \"<n>\"", sizes)
		}
		if n, ok = parseInt(f0); !ok {
			return fmt.Errorf("graph: bad size line %q", sizes)
		}
	}
	if n < 0 || m < 0 {
		return fmt.Errorf("graph: negative sizes in %q", sizes)
	}
	// Vertex ids are int32, so a header declaring more vertices than int32
	// can address is unusable — and sizing builder arrays from it would turn
	// a hostile one-line header into a multi-gigabyte allocation.
	if n > math.MaxInt32 {
		return fmt.Errorf("graph: vertex count %d exceeds the int32 id space", n)
	}
	if err := s.sizes(int(n), int(m), haveM); err != nil {
		return err
	}
	for {
		line, ok := next()
		if !ok {
			break
		}
		nf, err := splitFields3(line, &f0, &f1, &f2)
		if err != nil || nf != 3 {
			return fmt.Errorf("graph: bad record %q", line)
		}
		switch {
		case len(f0) == 1 && f0[0] == 'e':
			// Vertex must fit int32 before the cast; ids beyond that would
			// silently truncate. The [0, n) range check is the sink's job.
			u, ok1 := parseInt(f1)
			v, ok2 := parseInt(f2)
			if !ok1 || !ok2 || u > math.MaxInt32 || v > math.MaxInt32 || u < math.MinInt32 || v < math.MinInt32 {
				return fmt.Errorf("graph: bad endpoint in %q", line)
			}
			if err := s.edge(Vertex(u), Vertex(v)); err != nil {
				return err
			}
		case len(f0) == 1 && f0[0] == 'w':
			v, ok1 := parseInt(f1)
			if !ok1 || v > math.MaxInt32 || v < math.MinInt32 {
				return fmt.Errorf("graph: bad vertex in %q", line)
			}
			wt, err := strconv.ParseFloat(string(f2), 64)
			if err != nil {
				return fmt.Errorf("graph: bad weight in %q: %w", line, err)
			}
			if err := s.weight(Vertex(v), wt); err != nil {
				return err
			}
		default:
			return fmt.Errorf("graph: unknown record %q", line)
		}
	}
	return sc.Err()
}

// refTrace runs the reference scanner over data and returns its record
// stream as text, one line per sink call, with its error.
func refTrace(data []byte) (string, error) {
	var b strings.Builder
	s := recordSink{
		sizes: func(n, m int, haveM bool) error {
			fmt.Fprintf(&b, "sizes %d %d %v\n", n, m, haveM)
			return nil
		},
		weight: func(v Vertex, wt float64) error {
			fmt.Fprintf(&b, "w %d %#x\n", v, math.Float64bits(wt))
			return nil
		},
		edge: func(u, v Vertex) error {
			fmt.Fprintf(&b, "e %d %d\n", u, v)
			return nil
		},
	}
	err := scanRecords(bytes.NewReader(data), s)
	return b.String(), err
}

// streamTrace is refTrace for readHead and the line reader's record stream.
func streamTrace(data []byte) (string, error) {
	var b strings.Builder
	var lr lineReader
	lr.reset(bytes.NewReader(data), 0)
	n, m, err := readHead(&lr)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "sizes %d %d %v\n", n, max(m, 0), m >= 0)
	for {
		rec, err := lr.nextRecord()
		if err == io.EOF {
			return b.String(), nil
		}
		if err != nil {
			return b.String(), err
		}
		if rec.edge {
			fmt.Fprintf(&b, "e %d %d\n", rec.u, rec.v)
		} else {
			fmt.Fprintf(&b, "w %d %#x\n", rec.u, math.Float64bits(rec.w))
		}
	}
}
