package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// localInstance is the subproblem one machine simulates in a phase: the
// subgraph induced by its partition class V_i, with residual weights and
// initial duals computed at the phase start. Instances are reused across
// phases (see Reset), so a machine's decode buffers are allocated once and
// recycled.
type localInstance struct {
	// VertexIDs holds the global ids of the machine's vertices; all other
	// slices are indexed by position in this list.
	VertexIDs []graph.Vertex
	// ResWeight[i] is w′(VertexIDs[i]).
	ResWeight []float64
	// Edges are local index pairs; X0 their initial dual values.
	Edges [][2]int32
	// X0 holds the initial dual value of each local edge.
	X0 []float64
}

// Reset empties the instance for reuse, keeping the allocated capacity.
func (li *localInstance) Reset() {
	li.VertexIDs = li.VertexIDs[:0]
	li.ResWeight = li.ResWeight[:0]
	li.Edges = li.Edges[:0]
	li.X0 = li.X0[:0]
}

// Grow ensures capacity for nv vertices and ne edges (lengths unchanged),
// so record ingestion appends without intermediate reallocations.
func (li *localInstance) Grow(nv, ne int) {
	if cap(li.VertexIDs) < nv {
		li.VertexIDs = append(make([]graph.Vertex, 0, nv), li.VertexIDs...)
		li.ResWeight = append(make([]float64, 0, nv), li.ResWeight...)
	}
	if cap(li.Edges) < ne {
		li.Edges = append(make([][2]int32, 0, ne), li.Edges...)
		li.X0 = append(make([]float64, 0, ne), li.X0...)
	}
}

// Words returns the MPC memory footprint of the instance.
func (li *localInstance) Words() int64 {
	return int64(len(li.Edges))*3 + int64(len(li.VertexIDs))*2
}

// simSlot is one adjacency entry of the local subgraph.
type simSlot struct {
	edge  int32
	other int32
}

// simScratch holds the per-machine working arrays of runLocalSim, recycled
// across phases so a steady-state phase allocates nothing per simulation.
// The freezeIter result slice is part of the scratch: it is valid until the
// machine's next runLocalSim call.
type simScratch struct {
	freezeIter []int
	adjOff     []int32
	adj        []simSlot
	cursor     []int32
	x          []float64
	edgeActive []bool
	sumActive  []float64
	sumFrozen  []float64
	active     []bool
	freezeList []int32
}

// runLocalSim executes Lines (2g i–iii): I iterations of the centralized
// primal–dual scheme on the local subgraph, with the freeze test replaced by
// the biased estimator
//
//	ỹ_{v,t} = biasCoeff·m^{−0.2}·biasGrowth^t·w′(v) + m·Σ_{e∋v, e∈E[V_i]} x_{e,t}.
//
// The m· factor turns the local incident sum into an (essentially unbiased)
// estimate of the full-graph incident sum — each incident edge of v survives
// the partition with probability 1/m — and the additive bias makes the
// error one-sided w.h.p. (Section 3.2, "Other changes in our analysis").
//
// Note the w′(v) factor: the paper's Line (2g i) prints the bias as the
// absolute quantity 2m^{−0.2}·15^t, but its own analysis (Definition 4.9 is
// compared against thresholds T·w′(v); Corollary 4.12 and Lemma 4.13 bound
// ỹ−y by multiples of m^{−0.2}·15^t·w′(v)) requires the bias to scale with
// the residual weight — with vertex weights all equal to 1 the two forms
// coincide, which is presumably how the omission slipped through. We
// implement the w′(v)-scaled form; DESIGN.md records the correction.
//
// It returns, per local vertex, the iteration at which it froze (or -1).
// The returned slice aliases sc and is valid until sc's next use.
func runLocalSim(li *localInstance, machines, iterations int, epsilon, biasCoeff, biasGrowth float64,
	threshold func(v graph.Vertex, t int) float64, sc *simScratch) []int {

	nv := len(li.VertexIDs)
	sc.freezeIter = mpc.Grow(sc.freezeIter, nv)
	freezeIter := sc.freezeIter
	for i := range freezeIter {
		freezeIter[i] = -1
	}
	if iterations <= 0 {
		return freezeIter
	}

	// Adjacency over local edges.
	sc.adjOff = mpc.Grow(sc.adjOff, nv+1)
	adjOff := sc.adjOff
	for i := range adjOff {
		adjOff[i] = 0
	}
	for _, e := range li.Edges {
		adjOff[e[0]+1]++
		adjOff[e[1]+1]++
	}
	for i := 0; i < nv; i++ {
		adjOff[i+1] += adjOff[i]
	}
	sc.adj = mpc.Grow(sc.adj, len(li.Edges)*2)
	adj := sc.adj
	sc.cursor = mpc.Grow(sc.cursor, nv)
	cursor := sc.cursor
	copy(cursor, adjOff[:nv])
	for ei, e := range li.Edges {
		u, v := e[0], e[1]
		adj[cursor[u]] = simSlot{edge: int32(ei), other: v}
		cursor[u]++
		adj[cursor[v]] = simSlot{edge: int32(ei), other: u}
		cursor[v]++
	}

	growth := 1 / (1 - epsilon)
	mf := float64(machines)
	biasBase := biasCoeff * math.Pow(mf, -0.2)

	// Incremental incident sums, split into the part that still grows and
	// the part frozen at its final value (same scheme as the centralized
	// implementation).
	sc.x = mpc.Grow(sc.x, len(li.X0))
	x := sc.x
	copy(x, li.X0)
	sc.edgeActive = mpc.Grow(sc.edgeActive, len(li.Edges))
	edgeActive := sc.edgeActive
	sc.sumActive = mpc.Grow(sc.sumActive, nv)
	sumActive := sc.sumActive
	sc.sumFrozen = mpc.Grow(sc.sumFrozen, nv)
	sumFrozen := sc.sumFrozen
	for i := 0; i < nv; i++ {
		sumActive[i] = 0
		sumFrozen[i] = 0
	}
	for ei, e := range li.Edges {
		edgeActive[ei] = true
		sumActive[e[0]] += x[ei]
		sumActive[e[1]] += x[ei]
	}
	sc.active = mpc.Grow(sc.active, nv)
	active := sc.active
	for i := range active {
		active[i] = true
	}

	freezeList := sc.freezeList
	bias := biasBase
	for t := 0; t < iterations; t++ {
		// Line (2g i): simultaneous freeze test with the biased estimator.
		freezeList = freezeList[:0]
		for i := 0; i < nv; i++ {
			if !active[i] {
				continue
			}
			est := bias*li.ResWeight[i] + mf*(sumActive[i]+sumFrozen[i])
			if est >= threshold(li.VertexIDs[i], t)*li.ResWeight[i] {
				freezeList = append(freezeList, int32(i))
			}
		}
		for _, i := range freezeList {
			active[i] = false
			freezeIter[i] = t
		}
		for _, i := range freezeList {
			for _, s := range adj[adjOff[i]:adjOff[i+1]] {
				if !edgeActive[s.edge] {
					continue
				}
				edgeActive[s.edge] = false
				xe := x[s.edge]
				sumActive[i] -= xe
				sumFrozen[i] += xe
				sumActive[s.other] -= xe
				sumFrozen[s.other] += xe
			}
		}
		// Lines (2g ii–iii): active edges grow, frozen edges stay.
		for ei := range li.Edges {
			if edgeActive[ei] {
				x[ei] *= growth
			}
		}
		for i := 0; i < nv; i++ {
			if active[i] {
				sumActive[i] *= growth
			}
		}
		bias *= biasGrowth
	}
	sc.freezeList = freezeList
	return freezeIter
}
