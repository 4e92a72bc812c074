package solver

import (
	"errors"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/reduce"
)

// Kernel is a slot for one graph's reduction. A Pipeline given a Kernel
// runs reduce.Run only while the slot is empty and stores the first
// successful result; later runs on the same graph take the stored kernel
// and trace instead. Every rule keeps OPT exactly and reads only the graph,
// so the kernel does not depend on the algorithm, seed, ε or budget, and a
// run that takes it returns the same bits as one that reduces, apart from
// ReduceNS, which is 0.
//
// The zero Kernel is empty and ready to use. It is safe for concurrent use,
// and no lock is held while reduce.Run runs: concurrent first runs may each
// reduce, and the first result stored is kept. A failed or cancelled
// reduction is never stored. The slot keeps the kernel graph and its trace
// reachable for as long as the slot itself is; for an irreducible graph
// the kernel is the graph itself. A Kernel must not be copied after first
// use.
type Kernel struct {
	entry atomic.Pointer[kernelEntry]
}

// kernelEntry is a stored reduction and the graph it was computed from.
type kernelEntry struct {
	g   *graph.Graph
	red *reduce.Result
}

// errKernelGraph reports a Kernel used for a graph it was not filled from.
var errKernelGraph = errors.New("solver: kernel slot holds the reduction of another graph")

// load returns the reduction stored for g, or nil when k is nil or empty.
// A slot filled from another graph is an error.
func (k *Kernel) load(g *graph.Graph) (*reduce.Result, error) {
	if k == nil {
		return nil, nil
	}
	e := k.entry.Load()
	switch {
	case e == nil:
		return nil, nil
	case e.g != g:
		return nil, errKernelGraph
	}
	return e.red, nil
}

// store fills an empty slot with g's reduction; a filled slot keeps what it
// holds. It is a no-op on a nil Kernel.
func (k *Kernel) store(g *graph.Graph, red *reduce.Result) {
	if k != nil {
		k.entry.CompareAndSwap(nil, &kernelEntry{g: g, red: red})
	}
}
