package cli

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

// StreamableGenerators lists the -gen values whose edge stream can be
// written to disk without materializing the graph (mwvc-gen -stream).
func StreamableGenerators() []string {
	return []string{"gnp", "bipartite", "grid", "star"}
}

// streamSpec resolves generator parameters to the actual vertex count and a
// replayable edge stream. BuildGraph builds these generators from the same
// stream, so `-stream` and in-memory generation describe the same instance.
// ok is false for a generator that does not stream.
func streamSpec(generator string, n int, d float64, seed uint64) (nv int, stream func(gen.EdgeEmitter), ok bool) {
	switch strings.ToLower(generator) {
	case "gnp":
		p := 0.0
		if n > 1 {
			p = d / float64(n-1)
			if p > 1 {
				p = 1
			}
		}
		return n, func(emit gen.EdgeEmitter) { gen.EmitGnp(seed, n, p, emit) }, true
	case "bipartite":
		p := d / float64(n)
		if p > 1 {
			p = 1
		}
		nLeft, nRight := n/2, n-n/2
		return n, func(emit gen.EdgeEmitter) { gen.EmitRandomBipartite(seed, nLeft, nRight, p, emit) }, true
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return side * side, func(emit gen.EdgeEmitter) { gen.EmitGrid(side, side, emit) }, true
	case "star":
		return n, func(emit gen.EdgeEmitter) { gen.EmitStar(n, emit) }, true
	default:
		return 0, nil, false
	}
}

// StreamJob is a validated streaming-generation request: parameters have
// been checked, nothing has been written. Produced by PrepareStream, so
// callers can open (and possibly truncate) their output destination only
// after validation has succeeded.
type StreamJob struct {
	// Vertices is the instance's actual vertex count (generators like grid
	// may round the requested n up).
	Vertices int
	seed     uint64
	stream   func(gen.EdgeEmitter)
	model    gen.WeightModel
}

// PrepareStream validates a streaming-generation request (generator
// streamability, weight-model compatibility, parameter ranges) and returns
// the job to run. Weight models that depend on vertex degrees (degree,
// inverse-degree) require the built graph and are rejected.
func PrepareStream(generator string, n int, d float64, weights string, seed uint64) (*StreamJob, error) {
	if n < 0 {
		return nil, fmt.Errorf("cli: negative vertex count %d", n)
	}
	nv, stream, ok := streamSpec(generator, n, d, seed)
	if !ok {
		return nil, fmt.Errorf("cli: generator %q is not streamable (options: %s)",
			generator, strings.Join(StreamableGenerators(), ", "))
	}
	model, err := WeightModel(weights)
	if err != nil {
		return nil, err
	}
	if _, needsDegrees := model.(gen.DegreeCorrelated); needsDegrees {
		return nil, fmt.Errorf("cli: weight model %q requires vertex degrees and cannot stream; generate without -stream", weights)
	}
	return &StreamJob{Vertices: nv, seed: seed, stream: stream, model: model}, nil
}

// WriteTo streams the instance to w: weights are sampled per vertex and
// edges flow straight from the generator to the writer, one "e <u> <v>"
// line each — the form graph.ReadStream parses in one pass per line. The
// output, read back through ReadStream (at any chunk count), is
// bit-identical to what BuildGraph would construct for the same
// parameters. It returns the edge count written.
func (job *StreamJob) WriteTo(w io.Writer) (int64, error) {
	nv, model, seed := job.Vertices, job.model, job.seed
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 64)
	buf = append(buf, "mwvc-el 1\n"...)
	buf = strconv.AppendInt(buf, int64(nv), 10)
	buf = append(buf, '\n')
	bw.Write(buf)
	// Same sampling rule as gen.ApplyWeights(g, seed+1, model) in BuildGraph;
	// the degree argument is irrelevant for every streamable model.
	for v := 0; v < nv; v++ {
		if wt := model.Sample(seed+1, graph.Vertex(v), 0); wt != 1 {
			buf = append(buf[:0], 'w', ' ')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, wt, 'g', -1, 64)
			buf = append(buf, '\n')
			bw.Write(buf)
		}
	}
	var m int64
	job.stream(func(u, v graph.Vertex) {
		b := append(buf[:0], 'e', ' ')
		b = strconv.AppendInt(b, int64(u), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, '\n')
		bw.Write(b)
		m++
	})
	// bufio latches the first write error; one Flush check covers them all.
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return m, nil
}
