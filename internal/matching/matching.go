// Package matching implements maximal-matching algorithms. Matching is the
// LP dual of vertex cover and the paper frames its contribution inside the
// MPC matching/vertex-cover literature (Section 1.2): the unweighted
// 2-approximate vertex cover baseline is "take both endpoints of a maximal
// matching", and the distributed maximal-matching algorithm of Israeli–Itai
// [II86] is the O(log n)-round building block the pre-round-compression
// algorithms rest on.
//
// Two implementations are provided: a sequential greedy pass (the
// reference this package's tests check against) and a randomized
// Israeli–Itai-style distributed algorithm executed on the MPC substrate
// with one vertex-machine per vertex, whose round count is O(log n) w.h.p.
package matching

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
)

// Matching is a set of pairwise non-adjacent edges.
type Matching struct {
	// Edges flags the matched edge ids.
	Edges []bool
	// Mate[v] is the matched partner of v, or -1.
	Mate []graph.Vertex
	// Size is the number of matched edges.
	Size int
}

// Greedy computes a maximal matching by a single edge scan.
func Greedy(g *graph.Graph) *Matching {
	m := newMatching(g)
	ep := g.EdgeEndpoints()
	for e := 0; e < g.NumEdges(); e++ {
		u, v := ep[2*e], ep[2*e+1]
		if m.Mate[u] < 0 && m.Mate[v] < 0 {
			m.add(g, graph.EdgeID(e))
		}
	}
	return m
}

func newMatching(g *graph.Graph) *Matching {
	m := &Matching{
		Edges: make([]bool, g.NumEdges()),
		Mate:  make([]graph.Vertex, g.NumVertices()),
	}
	for v := range m.Mate {
		m.Mate[v] = -1
	}
	return m
}

func (m *Matching) add(g *graph.Graph, e graph.EdgeID) {
	u, v := g.Edge(e)
	m.Edges[e] = true
	m.Mate[u] = v
	m.Mate[v] = u
	m.Size++
}

// Verify checks the matching and (optionally) its maximality.
func (m *Matching) Verify(g *graph.Graph, requireMaximal bool) error {
	count := 0
	deg := make([]int, g.NumVertices())
	for e, in := range m.Edges {
		if !in {
			continue
		}
		count++
		u, v := g.Edge(graph.EdgeID(e))
		deg[u]++
		deg[v]++
		if m.Mate[u] != v || m.Mate[v] != u {
			return fmt.Errorf("matching: mate pointers broken at edge %d", e)
		}
	}
	if count != m.Size {
		return fmt.Errorf("matching: size %d, flagged %d", m.Size, count)
	}
	for v, d := range deg {
		if d > 1 {
			return fmt.Errorf("matching: vertex %d matched %d times", v, d)
		}
	}
	if requireMaximal {
		ep := g.EdgeEndpoints()
		for e := 0; e < g.NumEdges(); e++ {
			u, v := ep[2*e], ep[2*e+1]
			if m.Mate[u] < 0 && m.Mate[v] < 0 {
				return fmt.Errorf("matching: edge %d could be added (not maximal)", e)
			}
		}
	}
	return nil
}

// DistributedResult carries the matching plus the substrate's accounting.
type DistributedResult struct {
	*Matching
	Rounds  int
	Metrics mpc.Metrics
}

// Distributed computes a maximal matching with an Israeli–Itai-style
// randomized proposal protocol on the MPC substrate, one machine per
// vertex, O(1) words per edge per round:
//
//	per round: every unmatched vertex proposes to one random unmatched
//	neighbor; a vertex receiving proposals accepts one (the smallest
//	sender id among them, if it proposed nobody better); mutual agreement
//	matches the pair. In expectation a constant fraction of edges is
//	removed per round, giving O(log n) rounds w.h.p.
//
// The context is polled once per proposal round; cancellation surfaces as
// ctx.Err() without waiting out the remaining rounds.
func Distributed(ctx context.Context, g *graph.Graph, seed uint64) (*DistributedResult, error) {
	n := g.NumVertices()
	m := newMatching(g)
	if n == 0 || g.NumEdges() == 0 {
		return &DistributedResult{Matching: m}, nil
	}
	budget := int64(8*(g.MaxDegree()+4) + 64)
	cluster, err := mpc.NewCluster(mpc.Config{Machines: n, MemoryWords: budget})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	matched := make([]bool, n)
	// proposals[v] holds, during a round pair, the neighbor v proposed to.
	proposals := make([]graph.Vertex, n)
	remaining := g.NumEdges()
	maxRounds := 40 + 8*bitsLen(n)
	round := 0
	for remaining > 0 && round < maxRounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each round, unmatched vertices flip a coin: heads propose, tails
		// accept. The split is what keeps the round's matched pairs
		// disjoint — without it a vertex could be confirmed as a proposer
		// and simultaneously accept a different neighbor's proposal.
		heads := func(v graph.Vertex) bool {
			return rng.Bernoulli(seed, 0.5, 'C', uint64(round), uint64(v))
		}
		// Proposal round: every unmatched heads-vertex with an unmatched
		// neighbor sends one proposal (1 word) to a random such neighbor.
		err := cluster.Round(func(mach *mpc.Machine) error {
			v := graph.Vertex(mach.ID())
			proposals[v] = -1
			if matched[v] || !heads(v) {
				return nil
			}
			// Pick a uniform unmatched neighbor without materializing the
			// candidate list: count, draw an index, then walk to it.
			candidates := 0
			for _, u := range g.Neighbors(v) {
				if !matched[u] {
					candidates++
				}
			}
			if candidates == 0 {
				return nil
			}
			k := rng.ChooseAt(seed, candidates, 'M', uint64(round), uint64(v))
			pick := graph.Vertex(-1)
			for _, u := range g.Neighbors(v) {
				if !matched[u] {
					if k == 0 {
						pick = u
						break
					}
					k--
				}
			}
			proposals[v] = pick
			return mach.Send(int(pick), []uint64{uint64(uint32(v))})
		})
		if err != nil {
			return nil, err
		}
		// Acceptance round: each unmatched tails-vertex accepts its
		// smallest proposer and tells it so (1 word).
		accepted := make([]graph.Vertex, n)
		err = cluster.Round(func(mach *mpc.Machine) error {
			u := graph.Vertex(mach.ID())
			accepted[u] = -1
			if matched[u] || heads(u) {
				return nil
			}
			best := graph.Vertex(-1)
			for _, msg := range mach.Inbox() {
				from := graph.Vertex(uint32(msg.Data[0]))
				if best < 0 || from < best {
					best = from
				}
			}
			if best < 0 {
				return nil
			}
			accepted[u] = best
			return mach.Send(int(best), []uint64{uint64(uint32(u))})
		})
		if err != nil {
			return nil, err
		}
		// Match confirmation round: proposers that received an acceptance
		// from the vertex they proposed to are matched. Each machine only
		// writes its own confirmation slot; the driver applies the pairs
		// after the barrier (u accepted exactly one proposer, so pairs are
		// disjoint by construction).
		confirmed := make([]graph.Vertex, n)
		for i := range confirmed {
			confirmed[i] = -1
		}
		err = cluster.Round(func(mach *mpc.Machine) error {
			v := graph.Vertex(mach.ID())
			for _, msg := range mach.Inbox() {
				from := graph.Vertex(uint32(msg.Data[0]))
				if proposals[v] == from && accepted[from] == v {
					confirmed[v] = from
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			u := confirmed[v]
			if u < 0 {
				continue
			}
			matched[v] = true
			matched[u] = true
			m.add(g, g.EdgeBetween(graph.Vertex(v), u))
		}
		// Driver bookkeeping: count remaining active edges (termination is
		// a constant-round aggregation in a real deployment; accounted).
		remaining = 0
		ep := g.EdgeEndpoints()
		for e := 0; e < g.NumEdges(); e++ {
			u, v := ep[2*e], ep[2*e+1]
			if !matched[u] && !matched[v] {
				remaining++
			}
		}
		round++
	}
	if remaining > 0 {
		return nil, fmt.Errorf("matching: %d active edges after %d rounds", remaining, round)
	}
	cluster.AccountRounds(1) // termination detection
	return &DistributedResult{
		Matching: m,
		Rounds:   cluster.Metrics().Rounds,
		Metrics:  cluster.Metrics(),
	}, nil
}

func bitsLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// CoverFromMatching returns the classic 2-approximate unweighted vertex
// cover: both endpoints of every matched edge.
func CoverFromMatching(g *graph.Graph, m *Matching) []bool {
	cover := make([]bool, g.NumVertices())
	for e, in := range m.Edges {
		if in {
			u, v := g.Edge(graph.EdgeID(e))
			cover[u], cover[v] = true, true
		}
	}
	return cover
}
