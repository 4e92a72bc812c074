package serve

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"time"
)

// Metrics is a point-in-time snapshot of the engine's aggregate
// instrumentation, fed from two sources: the request lifecycle (admission,
// rejection, cache hits, completion) and the solver.Observer event stream
// that every in-engine solve is wired to (rounds and events totals).
type Metrics struct {
	// Request lifecycle counters.
	RequestsTotal int64 // admitted + rejected Submit calls
	Rejected      int64 // backpressure rejections (queue full)
	CacheHits     int64 // requests answered from the solution cache
	Done          int64 // successfully completed requests (incl. cache hits)
	Failed        int64 // failed requests (deadline, solver error, shutdown)

	// Robustness counters.
	Degraded     int64 // requests downgraded to the fallback solver under overload
	Coalesced    int64 // duplicate requests attached to an identical in-flight solve
	Abandoned    int64 // requests whose every waiting client disconnected
	SolverPanics int64 // panics recovered in the request path (request failed, worker survived)

	// Instantaneous gauges.
	InFlight     int64 // solves currently executing on workers
	Queued       int64 // requests waiting in the FIFO queue
	GraphsStored int64 // graphs in the content-addressed store
	Draining     bool  // engine refusing new work ahead of shutdown

	// Durable-store recovery findings from the startup scan (all zero for
	// in-memory stores).
	StoreRecovered    int64 // graph files verified and re-indexed at startup
	StoreQuarantined  int64 // files renamed aside after failing verification
	StoreTempsRemoved int64 // orphaned write temps deleted at startup

	// Observer-stream totals across all solves.
	RoundsTotal int64 // KindRound events observed
	EventsTotal int64 // all events observed

	// Solve-time accounting: actual solver executions, successful or failed
	// (a deadline-bound failure still burns worker time); cache hits
	// excluded.
	SolveCount   int64
	SolveSeconds float64

	// Kernelization accounting across successful solver executions that ran
	// the reduction stage (requests submitted with NoReduce, failed solves
	// — whose stats are lost with the errored solve — and cache hits
	// excluded; unlike SolveSeconds, which deliberately includes failures).
	// ReduceReused counts those that took their stored graph's kernel
	// instead of reducing; ReduceSeconds sums only the reductions that ran.
	ReduceCount           int64
	ReduceReused          int64
	ReduceSeconds         float64
	ReduceVerticesRemoved int64
	ReduceEdgesRemoved    int64

	// Anytime-improvement accounting across successful solver executions
	// that ran the stage (requests without an improve budget, exact solves —
	// which skip the stage — failed solves and cache hits excluded).
	ImproveCount         int64
	ImproveSeconds       float64
	ImproveSteps         int64
	ImproveWeightRemoved float64

	// PerAlgorithm counts solver executions by algorithm (successful or
	// failed; cache hits excluded).
	PerAlgorithm map[string]int64
}

// Metrics returns a snapshot of the engine's counters.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		RequestsTotal: e.met.requestsTotal.Load(),
		Rejected:      e.met.rejected.Load(),
		CacheHits:     e.met.cacheHits.Load(),
		Done:          e.met.done.Load(),
		Failed:        e.met.failed.Load(),
		Degraded:      e.met.degraded.Load(),
		Coalesced:     e.met.coalesced.Load(),
		Abandoned:     e.met.abandoned.Load(),
		SolverPanics:  e.met.panics.Load(),
		InFlight:      e.met.inFlight.Load(),
		Queued:        int64(len(e.queue)),
		GraphsStored:  int64(e.store.Len()),
		Draining:      e.Draining(),
		RoundsTotal:   e.met.roundsTotal.Load(),
		EventsTotal:   e.met.eventsTotal.Load(),
		SolveCount:    e.met.solveCount.Load(),
		SolveSeconds:  time.Duration(e.met.solveNanos.Load()).Seconds(),

		ReduceCount:           e.met.reduceCount.Load(),
		ReduceReused:          e.met.reduceReused.Load(),
		ReduceSeconds:         time.Duration(e.met.reduceNanos.Load()).Seconds(),
		ReduceVerticesRemoved: e.met.reduceVerticesRemoved.Load(),
		ReduceEdgesRemoved:    e.met.reduceEdgesRemoved.Load(),

		ImproveCount:         e.met.improveCount.Load(),
		ImproveSeconds:       time.Duration(e.met.improveNanos.Load()).Seconds(),
		ImproveSteps:         e.met.improveSteps.Load(),
		ImproveWeightRemoved: e.met.improveWeightRemoved.Load(),
	}
	rec := e.store.Recovery()
	m.StoreRecovered = int64(rec.Recovered)
	m.StoreQuarantined = int64(rec.Quarantined)
	m.StoreTempsRemoved = int64(rec.TempsRemoved)
	e.met.algoMu.Lock()
	if len(e.met.perAlgo) > 0 {
		// maps.Copy instead of a range: the copy is order-insensitive and
		// the rendered output sorts its keys (below), so no map iteration
		// order reaches the wire.
		m.PerAlgorithm = make(map[string]int64, len(e.met.perAlgo))
		maps.Copy(m.PerAlgorithm, e.met.perAlgo)
	}
	e.met.algoMu.Unlock()
	return m
}

// boolGauge renders a bool as a 0/1 Prometheus gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteMetrics renders the snapshot in the Prometheus text exposition
// format (counters and gauges only — no client library dependency).
func WriteMetrics(w io.Writer, m Metrics) error {
	type row struct {
		name, help, kind string
		value            float64
	}
	rows := []row{
		{"mwvc_requests_total", "Solve requests submitted (admitted or rejected).", "counter", float64(m.RequestsTotal)},
		{"mwvc_requests_rejected_total", "Requests rejected by queue backpressure.", "counter", float64(m.Rejected)},
		{"mwvc_cache_hits_total", "Requests answered from the solution cache.", "counter", float64(m.CacheHits)},
		{"mwvc_requests_done_total", "Requests completed successfully.", "counter", float64(m.Done)},
		{"mwvc_requests_failed_total", "Requests failed (deadline, error, shutdown).", "counter", float64(m.Failed)},
		{"mwvc_requests_degraded_total", "Requests downgraded to the fallback solver under overload.", "counter", float64(m.Degraded)},
		{"mwvc_requests_coalesced_total", "Duplicate requests coalesced onto an identical in-flight solve.", "counter", float64(m.Coalesced)},
		{"mwvc_requests_abandoned_total", "Requests abandoned by every waiting client.", "counter", float64(m.Abandoned)},
		{"mwvc_solver_panics_total", "Panics recovered in the request path.", "counter", float64(m.SolverPanics)},
		{"mwvc_draining", "1 while the engine refuses new work ahead of shutdown.", "gauge", boolGauge(m.Draining)},
		{"mwvc_store_recovered_total", "Graph files verified and re-indexed by the startup recovery scan.", "counter", float64(m.StoreRecovered)},
		{"mwvc_store_quarantined_total", "Graph files quarantined by the startup recovery scan.", "counter", float64(m.StoreQuarantined)},
		{"mwvc_store_temps_removed_total", "Orphaned write temps removed by the startup recovery scan.", "counter", float64(m.StoreTempsRemoved)},
		{"mwvc_solves_in_flight", "Solves currently executing.", "gauge", float64(m.InFlight)},
		{"mwvc_queue_depth", "Requests waiting in the FIFO queue.", "gauge", float64(m.Queued)},
		{"mwvc_graphs_stored", "Graphs in the content-addressed store.", "gauge", float64(m.GraphsStored)},
		{"mwvc_rounds_total", "Communication rounds observed across all solves.", "counter", float64(m.RoundsTotal)},
		{"mwvc_observer_events_total", "Observer events fanned into the metrics stream.", "counter", float64(m.EventsTotal)},
		{"mwvc_solve_seconds_sum", "Total wall-clock seconds spent solving (failed solves included).", "counter", m.SolveSeconds},
		{"mwvc_solve_seconds_count", "Solver executions timed, successful or failed (cache hits excluded).", "counter", float64(m.SolveCount)},
		{"mwvc_reduce_total", "Successful solver executions that ran the kernelization stage, reused kernels included.", "counter", float64(m.ReduceCount)},
		{"mwvc_reduce_reused_total", "Successful solver executions that took their stored graph's kernel instead of reducing.", "counter", float64(m.ReduceReused)},
		{"mwvc_reduce_seconds_sum", "Total wall-clock seconds spent kernelizing (successful solves; only reductions that ran).", "counter", m.ReduceSeconds},
		{"mwvc_reduce_vertices_removed_total", "Vertices removed by kernelization across successful solves.", "counter", float64(m.ReduceVerticesRemoved)},
		{"mwvc_reduce_edges_removed_total", "Edges removed by kernelization across successful solves.", "counter", float64(m.ReduceEdgesRemoved)},
		{"mwvc_improve_total", "Successful solver executions that ran the anytime improvement stage.", "counter", float64(m.ImproveCount)},
		{"mwvc_improve_seconds_sum", "Total wall-clock seconds spent improving (successful solves).", "counter", m.ImproveSeconds},
		{"mwvc_improve_steps_total", "Accepted improvement moves across successful solves.", "counter", float64(m.ImproveSteps)},
		{"mwvc_improve_weight_removed_total", "Cover weight removed by improvement across successful solves.", "counter", m.ImproveWeightRemoved},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", r.name, r.help, r.name, r.kind, r.name, r.value); err != nil {
			return err
		}
	}
	if len(m.PerAlgorithm) > 0 {
		if _, err := fmt.Fprintf(w, "# HELP mwvc_solves_by_algorithm_total Solver executions by algorithm.\n# TYPE mwvc_solves_by_algorithm_total counter\n"); err != nil {
			return err
		}
		algos := make([]string, 0, len(m.PerAlgorithm))
		for a := range m.PerAlgorithm {
			algos = append(algos, a)
		}
		sort.Strings(algos)
		for _, a := range algos {
			if _, err := fmt.Fprintf(w, "mwvc_solves_by_algorithm_total{algorithm=%q} %d\n", a, m.PerAlgorithm[a]); err != nil {
				return err
			}
		}
	}
	return nil
}
