package serve

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync/atomic"
	"time"
)

// boolGauge renders a bool as a 0/1 Prometheus gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeMetrics renders the engine's counters and gauges in the Prometheus
// text exposition format (no client library dependency), one row per
// series, read straight from the engine's atomics, its store and its queue.
// Write errors are not reported: the caller's client has gone.
func (e *Engine) writeMetrics(w io.Writer) {
	m := &e.met
	seconds := func(ns *atomic.Int64) float64 { return time.Duration(ns.Load()).Seconds() }
	rec := e.store.Recovery()
	rows := []struct {
		name, help, kind string
		value            float64
	}{
		{"mwvc_requests_total", "Solve requests submitted (admitted or rejected).", "counter", float64(m.requestsTotal.Load())},
		{"mwvc_requests_rejected_total", "Requests rejected by queue backpressure.", "counter", float64(m.rejected.Load())},
		{"mwvc_cache_hits_total", "Requests answered from the solution cache.", "counter", float64(m.cacheHits.Load())},
		{"mwvc_requests_done_total", "Requests completed successfully.", "counter", float64(m.done.Load())},
		{"mwvc_requests_failed_total", "Requests failed (deadline, error, shutdown).", "counter", float64(m.failed.Load())},
		{"mwvc_requests_degraded_total", "Requests downgraded to the fallback solver under overload.", "counter", float64(m.degraded.Load())},
		{"mwvc_requests_coalesced_total", "Duplicate requests coalesced onto an identical in-flight solve.", "counter", float64(m.coalesced.Load())},
		{"mwvc_requests_abandoned_total", "Requests abandoned by every waiting client.", "counter", float64(m.abandoned.Load())},
		{"mwvc_solver_panics_total", "Panics recovered in the request path.", "counter", float64(m.panics.Load())},
		{"mwvc_draining", "1 while the engine refuses new work ahead of shutdown.", "gauge", boolGauge(e.Draining())},
		{"mwvc_store_recovered_total", "Graph files verified and re-indexed by the startup recovery scan.", "counter", float64(rec.Recovered)},
		{"mwvc_store_quarantined_total", "Graph files quarantined by the startup recovery scan.", "counter", float64(rec.Quarantined)},
		{"mwvc_store_temps_removed_total", "Orphaned write temps removed by the startup recovery scan.", "counter", float64(rec.TempsRemoved)},
		{"mwvc_solves_in_flight", "Solves currently executing.", "gauge", float64(m.inFlight.Load())},
		{"mwvc_queue_depth", "Requests waiting in the FIFO queue.", "gauge", float64(len(e.queue))},
		{"mwvc_graphs_stored", "Graphs in the content-addressed store.", "gauge", float64(e.store.Len())},
		{"mwvc_rounds_total", "Communication rounds observed across all solves.", "counter", float64(m.roundsTotal.Load())},
		{"mwvc_observer_events_total", "Observer events fanned into the metrics stream.", "counter", float64(m.eventsTotal.Load())},
		{"mwvc_solve_seconds_sum", "Total wall-clock seconds spent solving (failed solves included).", "counter", seconds(&m.solveNanos)},
		{"mwvc_solve_seconds_count", "Solver executions timed, successful or failed (cache hits excluded).", "counter", float64(m.solveCount.Load())},
		{"mwvc_reduce_total", "Successful solver executions that ran the kernelization stage, reused kernels included.", "counter", float64(m.reduceCount.Load())},
		{"mwvc_reduce_reused_total", "Successful solver executions that took their stored graph's kernel instead of reducing.", "counter", float64(m.reduceReused.Load())},
		{"mwvc_reduce_seconds_sum", "Total wall-clock seconds spent kernelizing (successful solves; only reductions that ran).", "counter", seconds(&m.reduceNanos)},
		{"mwvc_reduce_vertices_removed_total", "Vertices removed by kernelization across successful solves.", "counter", float64(m.reduceVerticesRemoved.Load())},
		{"mwvc_reduce_edges_removed_total", "Edges removed by kernelization across successful solves.", "counter", float64(m.reduceEdgesRemoved.Load())},
		{"mwvc_improve_total", "Successful solver executions that ran the anytime improvement stage.", "counter", float64(m.improveCount.Load())},
		{"mwvc_improve_seconds_sum", "Total wall-clock seconds spent improving (successful solves).", "counter", seconds(&m.improveNanos)},
		{"mwvc_improve_steps_total", "Accepted improvement moves across successful solves.", "counter", float64(m.improveSteps.Load())},
		{"mwvc_improve_weight_removed_total", "Cover weight removed by improvement across successful solves.", "counter", m.improveWeightRemoved.Load()},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", r.name, r.help, r.name, r.kind, r.name, r.value)
	}
	m.algoMu.Lock()
	perAlgo := maps.Clone(m.perAlgo)
	m.algoMu.Unlock()
	if len(perAlgo) == 0 {
		return
	}
	fmt.Fprint(w, "# HELP mwvc_solves_by_algorithm_total Solver executions by algorithm.\n# TYPE mwvc_solves_by_algorithm_total counter\n")
	algos := make([]string, 0, len(perAlgo))
	for a := range perAlgo {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	for _, a := range algos {
		fmt.Fprintf(w, "mwvc_solves_by_algorithm_total{algorithm=%q} %d\n", a, perAlgo[a])
	}
}
