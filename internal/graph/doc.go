// Package graph provides the immutable weighted-graph representation shared
// by every algorithm in this repository.
//
// A Graph is an undirected simple graph in CSR (compressed sparse row) form
// with positive float64 vertex weights: a flat uint32 offset array, a flat
// neighbor array, a slot-aligned edge-id array, and a flat edge-endpoint
// array — no per-vertex slices, no pointers. The last three hold 2m int32
// entries each, 24 bytes per edge, and offsets and weights add 12 bytes per
// vertex. Each undirected edge has a stable edge id in [0, NumEdges());
// the adjacency structure stores, for every directed slot, both the
// neighbor and the id of the underlying undirected edge, so per-edge state
// (such as the dual variables x_e of the primal–dual algorithm) can live in
// flat slices indexed by edge id. Edge ids are assigned in lexicographic
// (min, max) endpoint order, which makes graph construction deterministic:
// the same edge set always yields the same ids regardless of insertion
// order.
//
// # Construction
//
// Two builders produce a Graph:
//
//   - Builder buffers an in-memory edge list (AddEdge in any order,
//     duplicates merged) and is the convenience path used by generators,
//     tests, and small instances.
//   - CSRBuilder is the streaming path: the caller streams the edge list
//     twice (CountEdge… EndCount, then AddEdge…), and the builder assembles
//     the CSR arrays in place — no comparison sort over m edges.
//     Deterministic generators replay their edge stream for the two passes
//     with no buffering at all.
//
// # Serialization
//
// io.go implements the two on-disk text formats ("mwvc-graph 1" with an
// edge-count header, and the streaming-friendly "mwvc-el 1" without one)
// plus the canonical writer whose byte stream defines the content hash used
// by the serve store. See docs/FORMATS.md for the format specification.
//
// One reader parses both formats and reads every byte once. ReadStream (and
// OpenFile) reads a file in newline-aligned chunks, one per core; Read
// reads a one-shot stream as a single chunk. Each chunk parses its lines
// once, counting degrees privately and keeping its edge records in a
// buffer of its own (8 bytes per record), then fills its own slots of
// every CSR row from that buffer. That is a CSRBuilder fed a stream split
// into parts — the arbitrarily partitioned edge set of the MPC model, with
// the cores as machines, or one machine for a stream. The graph is the
// same for every chunk count.
package graph
