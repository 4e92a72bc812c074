package core

import (
	"context"
	"math"

	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// class is the subproblem one simulation machine runs in a phase: the
// subgraph induced by its partition class V_i, with residual weights as
// vertex weights and the edges in inbox order. It is the machine's decode
// buffer, recycled across phases, and the centralized.Graph that Line 2g
// runs on; the coupling replay and Line 3's residual instance are classes
// too.
type class struct {
	ids []graph.Vertex // global id of each local vertex
	w   []float64      // w′ of each local vertex
	ep  []graph.Vertex // local endpoints: edge i joins ep[2i] and ep[2i+1]
	x0  []float64      // the Line 2c dual of each edge (nil on Line 3)
	// The rows: vertex v's neighbors and edge ids are nbr and inc over
	// [off[v], off[v+1]), in edge order.
	off []int32
	nbr []graph.Vertex
	inc []graph.EdgeID
}

func (c *class) NumVertices() int              { return len(c.w) }
func (c *class) NumEdges() int                 { return len(c.ep) / 2 }
func (c *class) Weights() []float64            { return c.w }
func (c *class) EdgeEndpoints() []graph.Vertex { return c.ep }
func (c *class) Neighbors(v graph.Vertex) []graph.Vertex {
	return c.nbr[c.off[v]:c.off[v+1]]
}
func (c *class) IncidentEdges(v graph.Vertex) []graph.EdgeID {
	return c.inc[c.off[v]:c.off[v+1]]
}

// newClass returns the placed class of vertices ids (global ids) with
// residual weights w, and local edges with initial duals x0.
func newClass(ids []graph.Vertex, w []float64, edges [][2]int32, x0 []float64) *class {
	c := &class{ids: ids, w: w, ep: make([]graph.Vertex, 0, 2*len(edges)), x0: x0}
	for _, e := range edges {
		c.ep = append(c.ep, e[0], e[1])
	}
	c.place()
	return c
}

// reset empties the class for nv vertices and ne edges, keeping the
// allocated capacity, so decoding appends without reallocating.
func (c *class) reset(nv, ne int) {
	c.ids = mpc.Grow(c.ids, nv)[:0]
	c.w = mpc.Grow(c.w, nv)[:0]
	c.ep = mpc.Grow(c.ep, 2*ne)[:0]
	c.x0 = mpc.Grow(c.x0, ne)[:0]
}

// place fills the rows from the endpoints with one counting pass. Vertex
// v's count goes to off[v+2], so after the prefix sum off[v+1] is v's first
// slot; placing advances it to v's end, which is where row v+1 starts.
func (c *class) place() {
	n := len(c.w)
	c.off = mpc.Grow(c.off, n+2)
	clear(c.off)
	for _, v := range c.ep {
		c.off[v+2]++
	}
	for v := 2; v < n+2; v++ {
		c.off[v] += c.off[v-1]
	}
	c.nbr = mpc.Grow(c.nbr, len(c.ep))
	c.inc = mpc.Grow(c.inc, len(c.ep))
	for e := range len(c.ep) / 2 {
		u, v := c.ep[2*e], c.ep[2*e+1]
		s := c.off[u+1]
		c.nbr[s], c.inc[s] = v, graph.EdgeID(e)
		c.off[u+1]++
		s = c.off[v+1]
		c.nbr[s], c.inc[s] = u, graph.EdgeID(e)
		c.off[v+1]++
	}
	c.off = c.off[:n+1]
}

// Words returns the class's MPC memory footprint (Lemma 4.1): an edge
// record's 3 words per edge and a vertex record's 2 per vertex.
func (c *class) Words() int64 {
	return int64(c.NumEdges())*3 + int64(len(c.w))*2
}

// biasSchedule returns b_t = coeff·m^{−0.2}·growth^t for t < iters, in
// dst's storage, by repeated multiplication.
func biasSchedule(dst []float64, coeff, growth float64, machines, iters int) []float64 {
	dst = mpc.Grow(dst, iters)
	b := coeff * math.Pow(float64(machines), -0.2)
	for t := range dst {
		dst[t] = b
		b *= growth
	}
	return dst
}

// run executes Lines (2g i–iii) on the placed class: Algorithm 1 for iters
// iterations from the Line 2c duals, with the biased estimator of a phase
// on `machines` simulation machines as the freeze test. bias is the
// phase's biasSchedule and threshold its T(v,t) on the class's vertices. It
// returns each local vertex's freeze iteration, or -1. Cancellation is
// checked between the cluster's rounds, so the run takes no context.
func (c *class) run(machines, iters int, epsilon float64, bias []float64, threshold centralized.ThresholdFunc) ([]int, error) {
	mf := float64(machines)
	res, err := centralized.Run(context.Background(), centralized.Instance{G: c, X0: c.x0}, centralized.Options{
		Epsilon:   epsilon,
		StopAfter: iters,
		// Line (2g i) freezes v when the biased estimator
		//
		//	ỹ_{v,t} = b_t·w′(v) + m·Σ_{e∋v, e∈E[V_i]} x_{e,t}
		//
		// reaches T(v,t)·w′(v), i.e. when the local sum y reaches
		// T′(v,t)·w′(v) with T′ = (T − b_t)/m. The m· factor turns the
		// local incident sum into an (essentially unbiased) estimate of the
		// full-graph one — each incident edge of v survives the partition
		// with probability 1/m — and the additive bias makes the error
		// one-sided w.h.p. (Section 3.2, "Other changes in our analysis").
		//
		// Note the w′(v) factor: the paper's Line (2g i) prints the bias as
		// the absolute quantity 2m^{−0.2}·15^t, but its own analysis
		// (Definition 4.9 is compared against thresholds T·w′(v); Corollary
		// 4.12 and Lemma 4.13 bound ỹ−y by multiples of m^{−0.2}·15^t·w′(v))
		// requires the bias to scale with the residual weight — with vertex
		// weights all equal to 1 the two forms coincide, which is presumably
		// how the omission slipped through. We implement the w′(v)-scaled
		// form; DESIGN.md records the correction.
		Threshold: func(v graph.Vertex, t int) float64 {
			return (threshold(v, t) - bias[t]) / mf
		},
	})
	if err != nil {
		return nil, err
	}
	return res.FreezeIter, nil
}
