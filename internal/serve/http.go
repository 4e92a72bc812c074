package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	mwvc "repro"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/solver"
)

// maxGraphUpload bounds a POST /v1/graphs body; the text formats run about
// 12 bytes per edge, so this admits graphs into the hundred-million-edge
// range while keeping a hostile upload from exhausting memory. Uploads may
// use either the canonical "mwvc-graph 1" format or the streaming
// "mwvc-el 1" edge-list format (docs/FORMATS.md); the stored graph and its
// content hash are canonical regardless.
const maxGraphUpload = 1 << 31

// NewHandler exposes the engine over HTTP:
//
//	POST /v1/graphs          upload a graph (text format) → its content hash
//	POST /v1/solve           solve {graph, algorithm, epsilon, seed, ...}
//	GET  /v1/solve/{id}      request status / result
//	GET  /v1/solve/{id}/trace  live round-by-round events (SSE)
//	GET  /metrics            Prometheus text exposition
//	GET  /healthz            readiness: 200 serving, 503 draining
func NewHandler(e *Engine) http.Handler {
	s := &server{engine: e}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.uploadGraph)
	mux.HandleFunc("POST /v1/solve", s.solve)
	mux.HandleFunc("GET /v1/solve/{id}", s.status)
	mux.HandleFunc("GET /v1/solve/{id}/trace", s.trace)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", s.healthz)
	return mux
}

// healthz is the readiness probe: 200 while the engine accepts work, 503
// once a drain (or close) begins so load balancers stop routing here while
// queued and in-flight solves finish.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.engine.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

type server struct {
	engine *Engine
}

// GraphResponse answers POST /v1/graphs.
type GraphResponse struct {
	Graph    string `json:"graph"` // content hash; the id solve requests use
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	New      bool   `json:"new"` // false when the graph was already stored
}

// SolveRequest is the POST /v1/solve body. Zero-valued fields take the
// engine defaults (algorithm mpc, ε 0.1, seed 0, default deadline).
type SolveRequest struct {
	Graph     string `json:"graph"` // content hash from POST /v1/graphs
	Algorithm string `json:"algorithm,omitempty"`
	// Tier picks an algorithm by quality/latency bucket instead of by name:
	// "fast", "accurate" or "exact" resolves to the bucket's preferred
	// (lowest-ranked) registered solver — e.g. tier "fast" is the pdfast
	// primal–dual sweep. Mutually exclusive with Algorithm; the response's
	// algorithm field reports what the tier resolved to, and the resolved
	// algorithm is what enters the solution-cache key.
	Tier           string  `json:"tier,omitempty"`
	Epsilon        float64 `json:"epsilon,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
	PaperConstants bool    `json:"paper_constants,omitempty"`
	// Reduce toggles the kernelization stage; omitted or true runs it (the
	// facade default), false solves the raw graph. It is part of the
	// solution-cache key.
	Reduce *bool `json:"reduce,omitempty"`
	// ImproveBudgetMS, when positive, runs the anytime improvement stage
	// with that wall-clock budget after the solve; improvement statistics
	// appear under solution.improvement. It is part of the solution-cache
	// key.
	ImproveBudgetMS int64 `json:"improve_budget_ms,omitempty"`
	TimeoutMS       int64 `json:"timeout_ms,omitempty"`
	// IncludeCover adds the cover bitmap to the response (omitted by default:
	// it is n booleans, usually the bulk of the payload).
	IncludeCover bool `json:"include_cover,omitempty"`
	// Wait false turns the call asynchronous: respond 202 with the request
	// id immediately; poll GET /v1/solve/{id} or stream .../trace.
	Wait *bool `json:"wait,omitempty"`
}

// SolveResponse answers POST /v1/solve and GET /v1/solve/{id}.
type SolveResponse struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	// Coalesced marks a request that shared an identical in-flight solve
	// instead of running its own.
	Coalesced bool   `json:"coalesced,omitempty"`
	Graph     string `json:"graph"`
	// Algorithm is the solver that actually ran. Under overload degradation
	// it may be the cheap fallback rather than what the client asked for —
	// Degraded is set and RequestedAlgorithm preserves the original ask.
	Algorithm          string  `json:"algorithm"`
	Degraded           bool    `json:"degraded,omitempty"`
	RequestedAlgorithm string  `json:"requested_algorithm,omitempty"`
	Epsilon            float64 `json:"epsilon"`
	Seed               uint64  `json:"seed"`
	// Reduce echoes whether the kernelization stage was enabled for this
	// request; kernel statistics appear under solution.reduction.
	Reduce bool `json:"reduce"`
	// ImproveBudgetMS echoes the effective (clamped) improvement budget; 0
	// means the stage was off. Stage statistics appear under
	// solution.improvement.
	ImproveBudgetMS int64          `json:"improve_budget_ms,omitempty"`
	Solution        *mwvc.Solution `json:"solution,omitempty"`
	CoverSize       int            `json:"cover_size,omitempty"`
	Error           string         `json:"error,omitempty"`
	Rounds          int            `json:"rounds,omitempty"` // live count while running
	// TraceDropped is nonzero when the round-by-round trace was truncated
	// beyond the per-request buffer cap.
	TraceDropped int   `json:"trace_dropped,omitempty"`
	QueueMS      int64 `json:"queue_ms"`
	SolveMS      int64 `json:"solve_ms,omitempty"`
}

func (s *server) uploadGraph(w http.ResponseWriter, r *http.Request) {
	g, err := graph.Read(http.MaxBytesReader(w, r.Body, maxGraphUpload))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("graph upload exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("parsing graph: %v", err))
		return
	}
	sg, isNew, err := s.engine.Graphs().Add(g)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrStoreFull):
			code = http.StatusInsufficientStorage
		case errors.Is(err, ErrRetryable):
			// A durable-store persist failure: nothing was acknowledged, the
			// client may simply retry the upload.
			w.Header().Set("Retry-After", "1")
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, GraphResponse{Graph: sg.Hash, Vertices: sg.Vertices, Edges: sg.Edges, New: isNew})
}

func (s *server) solve(w http.ResponseWriter, r *http.Request) {
	var body SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err))
		return
	}
	algo := body.Algorithm
	if body.Tier != "" {
		if body.Algorithm != "" {
			httpError(w, http.StatusBadRequest, `"algorithm" and "tier" are mutually exclusive; name one or the other`)
			return
		}
		regs := solver.ByTier(body.Tier)
		if len(regs) == 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown tier %q (want fast, accurate or exact)", body.Tier))
			return
		}
		algo = regs[0].Name
	}
	req, err := s.engine.Submit(SolveParams{
		GraphHash:       body.Graph,
		Algorithm:       algo,
		Epsilon:         body.Epsilon,
		Seed:            body.Seed,
		PaperConstants:  body.PaperConstants,
		NoReduce:        body.Reduce != nil && !*body.Reduce,
		ImproveBudgetMS: body.ImproveBudgetMS,
		Timeout:         time.Duration(body.TimeoutMS) * time.Millisecond,
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrUnknownGraph):
			httpError(w, http.StatusNotFound, err.Error())
		case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, err.Error())
		default: // unknown algorithm, malformed params
			httpError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	if body.Wait != nil && !*body.Wait {
		// 202 while the work is pending — but a cache hit completes inside
		// Submit, and answering 202 for it would send the client off to poll
		// for a result it already holds.
		snap := req.Snapshot()
		code := http.StatusAccepted
		if snap.Status == StatusDone {
			code = http.StatusOK
		}
		writeJSON(w, code, s.response(req, snap, body.IncludeCover))
		return
	}
	if err := req.Wait(r.Context()); err != nil {
		// Client gone. Withdraw this waiter's interest: when no one else is
		// attached (no coalesced twin, no poller), the solve is cancelled so
		// the worker slot stops burning on a result nobody will read.
		req.Abandon()
		return
	}
	snap := req.Snapshot()
	code := solveStatusCode(snap.Err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, s.response(req, snap, body.IncludeCover))
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	req, ok := s.engine.Lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown solve id")
		return
	}
	writeJSON(w, http.StatusOK, s.response(req, req.Snapshot(), r.URL.Query().Get("cover") == "1"))
}

// solveStatusCode maps a finished request's error to its HTTP status: 200
// on success, 504 for a blown per-request deadline (the unified deadline
// handling shared with cmd/mwvc -timeout), 422 for parameters outside the
// algorithm's domain (exact beyond its vertex limit, ε out of range — a
// client mistake, not a server fault), 503 with
// Retry-After for typed transient failures (recovered panic, tripped
// worker, shutdown), 500 otherwise.
func solveStatusCode(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, solver.ErrUnsupported):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrClosed), errors.Is(err, ErrRetryable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// response renders one consistent snapshot of a request (see
// Request.Snapshot). The cover bitmap is stripped unless asked for;
// CoverSize always reports its cardinality.
func (s *server) response(req *Request, snap Snapshot, includeCover bool) SolveResponse {
	resp := SolveResponse{
		ID:                 req.ID,
		Status:             snap.Status,
		Cached:             snap.Cached,
		Coalesced:          snap.Coalesced,
		Graph:              req.Params.GraphHash,
		Algorithm:          req.Params.Algorithm,
		Degraded:           req.Degraded,
		RequestedAlgorithm: req.RequestedAlgo,
		Epsilon:            req.Params.Epsilon,
		Seed:               req.Params.Seed,
		Reduce:             !req.Params.NoReduce,
		ImproveBudgetMS:    req.Params.ImproveBudgetMS,
		Error:              snap.ErrMsg,
		Rounds:             snap.Rounds,
		TraceDropped:       snap.TraceDropped,
	}
	if !snap.StartedAt.IsZero() {
		resp.QueueMS = snap.StartedAt.Sub(snap.QueuedAt).Milliseconds()
	}
	if !snap.DoneAt.IsZero() && !snap.StartedAt.IsZero() {
		resp.SolveMS = snap.DoneAt.Sub(snap.StartedAt).Milliseconds()
	}
	if snap.Sol != nil {
		resp.CoverSize = snap.CoverSize
		if !includeCover {
			trimmed := *snap.Sol // shallow copy; the cached Solution stays intact
			trimmed.Cover = nil
			resp.Solution = &trimmed
		} else {
			resp.Solution = snap.Sol
		}
	}
	return resp
}

// traceEventJSON is the SSE data payload for one observer event.
type traceEventJSON struct {
	Kind        string  `json:"kind"`
	Phase       int     `json:"phase"`
	Round       int     `json:"round"`
	ActiveEdges int64   `json:"active_edges"`
	DualBound   float64 `json:"dual_bound"`
	Degree      float64 `json:"degree,omitempty"`
	Machines    int     `json:"machines,omitempty"`
	Iterations  int     `json:"iterations,omitempty"`
	// Weight is the current cover weight for improvement-stage events.
	Weight float64 `json:"weight,omitempty"`
}

func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	req, ok := s.engine.Lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown solve id")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	past, live, cancel := req.Subscribe(1024)
	defer cancel()
	for i := range past {
		writeSSE(w, &past[i])
	}
	fl.Flush()
	for {
		select {
		case e, ok := <-live:
			if !ok {
				// Request finished: emit the terminal event and stop.
				snap := req.Snapshot()
				final := struct {
					Status  Status `json:"status"`
					Cached  bool   `json:"cached,omitempty"`
					Error   string `json:"error,omitempty"`
					Rounds  int    `json:"rounds"`
					Dropped int    `json:"dropped_events,omitempty"` // trace truncated beyond the buffer cap
				}{Status: snap.Status, Cached: snap.Cached, Error: snap.ErrMsg, Rounds: snap.Rounds, Dropped: snap.TraceDropped}
				data, _ := json.Marshal(final)
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
				fl.Flush()
				return
			}
			writeSSE(w, &e)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, e *mwvc.Event) {
	data, _ := json.Marshal(traceEventJSON{
		Kind:        e.Kind.String(),
		Phase:       e.Phase,
		Round:       e.Round,
		ActiveEdges: e.ActiveEdges,
		DualBound:   e.DualBound,
		Degree:      e.Degree,
		Machines:    e.Machines,
		Iterations:  e.Iterations,
		Weight:      e.Weight,
	})
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind.String(), data)
}

func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	if err := WriteMetrics(&b, s.engine.Metrics()); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	fmt.Fprint(w, b.String())
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	if err := fault.Hit(fault.ResponseEncode); err != nil {
		// Encoder fault: replace the payload with a clean typed error before
		// any body byte is written — the client sees valid JSON and a
		// retryable status, never a torn response. Written inline (not via a
		// recursive writeJSON) so the error path cannot itself trip.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"error\":%q}\n", ErrRetryable.Error()+": encoding response")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
