// Package mpc simulates the Massively Parallel Computation model of
// Karloff–Suri–Vassilvitskii (as refined by Beame–Koutris–Suciu and
// Andoni–Nikolov–Onak–Yaroslavtsev, the formulation in Section 1.1 of the
// paper): M machines, each with S words of memory, computing in synchronous
// rounds. Per round every machine performs local computation and then
// exchanges messages, subject to the model's constraints:
//
//   - a machine's resident data never exceeds S words;
//   - the total data a machine sends in one round is at most S words;
//   - the total data a machine receives in one round is at most S words.
//
// The simulator enforces all three mechanically and records the metrics the
// paper's analysis speaks about (rounds, maximum machine load, total
// communication). Machine-local computation executes concurrently on real
// OS threads — a persistent worker pool bounded by Config.Parallelism —
// which is what makes the repository's larger experiments tractable.
//
// A congested-clique mode (per Section 1.3's [BDH18] equivalence) adds the
// stricter constraint of that model: per round, each ordered pair of
// machines may exchange at most PairWords words (O(log n) bits ≈ O(1)
// words per pair).
//
// # Message plane
//
// Communication is arena-backed and allocation-free at steady state: Send
// copies the payload into the sender's reusable outgoing arena and records a
// compact (to, offset, length) envelope; route() delivers by a counting sort
// over senders into per-machine inbox arenas that are recycled across
// rounds, with the word copies parallelized across the worker pool (each
// destination's inbox is assembled by exactly one worker). Delivery order is
// deterministic — by (sender id, send order) — regardless of scheduling.
// Inbox views are valid only until the next Round; see Machine.Inbox.
//
// # Place in the system
//
// The plane sits between the CSR graph core (internal/graph) below and the
// algorithm packages above: internal/core partitions the graph's vertices
// and edges over simulated machines and runs the paper's phases here,
// including the one-level degree aggregation each phase needs. See
// docs/ARCHITECTURE.md for the full layer tour and DESIGN.md §"Performance
// model of the simulator" for the cost model.
package mpc
