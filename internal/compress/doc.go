// Package compress registers the round-compressed Algorithm 2 as
// mpc-compress: every phase runs on the gathered schedule of the shared
// phase driver in package core (core.RunGathered).
//
// A gathered phase samples the high-degree vertices into √d groups with a
// seeded hash, prices each group's induced neighborhood against the gather
// budget (Params.GatherWords), splitting the partition until it fits, and
// spends three accounted cluster rounds where the native schedule spends
// five: scatter (each group's records to one machine, with the homes'
// nonfrozen-edge counts piggybacked to machine 0), simulate (all k LOCAL
// rounds inside the machine; machine 0 cross-checks the counts), and
// collect. A phase whose groups cannot fit runs on the native schedule and
// sets Result.Fallback. The reconcile step and the dual certificate are the
// native solver's; only the round bill changes, 3·phases+1 instead of
// 5·phases+1, and solver.KindCompress reports each gathered phase's
// simulated-LOCAL-round count.
package compress
