package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	mwvc "repro"
	"repro/internal/graph"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Engine) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv, e
}

func uploadGraph(t *testing.T, srv *httptest.Server, g *graph.Graph) GraphResponse {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/graphs", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var gr GraphResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	return gr
}

func postSolve(t *testing.T, srv *httptest.Server, body SolveRequest) (*http.Response, SolveResponse) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SolveResponse
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &sr); err != nil && resp.StatusCode < 400 {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return resp, sr
}

func TestHTTPUploadSolveRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	g := mwvc.RandomGraph(1, 100, 6)
	gr := uploadGraph(t, srv, g)
	if !gr.New || gr.Vertices != 100 {
		t.Fatalf("upload response %+v", gr)
	}
	// Idempotent re-upload.
	gr2 := uploadGraph(t, srv, g)
	if gr2.New || gr2.Graph != gr.Graph {
		t.Fatalf("re-upload response %+v (want existing %s)", gr2, gr.Graph)
	}

	resp, sr := postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "mpc", Epsilon: 0.1, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %+v", resp.StatusCode, sr)
	}
	if sr.Status != StatusDone || sr.Solution == nil || sr.Cached {
		t.Fatalf("solve response %+v", sr)
	}
	if sr.Solution.Cover != nil {
		t.Fatal("cover included without include_cover")
	}
	if sr.Solution.Weight <= 0 || sr.CoverSize == 0 {
		t.Fatalf("implausible solution %+v", sr.Solution)
	}
	if sr.Solution.CertifiedRatio > 2.5 {
		t.Fatalf("mpc certified ratio %v > 2+O(ε)", sr.Solution.CertifiedRatio)
	}

	// The identical request is a cache hit and can carry the cover.
	resp2, sr2 := postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "mpc", Epsilon: 0.1, Seed: 3, IncludeCover: true})
	if resp2.StatusCode != http.StatusOK || !sr2.Cached {
		t.Fatalf("repeat solve not cached: %d %+v", resp2.StatusCode, sr2)
	}
	if len(sr2.Solution.Cover) != 100 {
		t.Fatalf("include_cover returned %d bits", len(sr2.Solution.Cover))
	}
	if sr2.Solution.Weight != sr.Solution.Weight {
		t.Fatalf("cached weight %v != original %v", sr2.Solution.Weight, sr.Solution.Weight)
	}

	// An async submit of an already-cached tuple is complete at admission:
	// it must answer 200 with the result, not 202-go-poll.
	waitFalse := false
	resp2b, sr2b := postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "mpc", Epsilon: 0.1, Seed: 3, Wait: &waitFalse})
	if resp2b.StatusCode != http.StatusOK || !sr2b.Cached || sr2b.Solution == nil {
		t.Fatalf("async cached solve: status %d %+v, want 200 with solution", resp2b.StatusCode, sr2b)
	}

	// Greedy raises no duals of its own, yet its answer is certified too:
	// the pipeline's Bar-Yehuda–Even bound crosses the wire as a number.
	resp3, sr3 := postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "greedy"})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("greedy solve status %d", resp3.StatusCode)
	}
	if sol := sr3.Solution; !(sol.Bound > 0) || !(sol.CertifiedRatio >= 1) || math.IsInf(sol.CertifiedRatio, 0) {
		t.Fatalf("greedy bound %v ratio %v, want a positive bound and a finite ratio ≥ 1", sol.Bound, sol.CertifiedRatio)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"grpah":"x"}`, http.StatusBadRequest},
		{"unknown graph", `{"graph":"sha256:beef"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	g := mwvc.RandomGraph(1, 20, 3)
	gr := uploadGraph(t, srv, g)
	resp, _ := postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "no-such"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown algorithm: status %d, want 400", resp.StatusCode)
	}
	// Parameters outside the algorithm's domain are the client's mistake:
	// exact beyond its 64-vertex limit (reduction disabled, so the raw graph
	// reaches the solver) must answer 422, not 500.
	noReduce := false
	big := uploadGraph(t, srv, mwvc.RandomGraph(2, 100, 4))
	resp, sr := postSolve(t, srv, SolveRequest{Graph: big.Graph, Algorithm: "exact", Reduce: &noReduce})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("exact on 100 raw vertices: status %d, want 422", resp.StatusCode)
	}
	if !strings.Contains(sr.Error, "vertices exceed") {
		t.Errorf("422 error %q lacks the solver's explanation", sr.Error)
	}
	if resp, _ := postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "mpc", Epsilon: 0.4}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("mpc with epsilon 0.4: status %d, want 422", resp.StatusCode)
	}
	if resp, err := http.Get(srv.URL + "/v1/solve/s-999999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(srv.URL+"/v1/graphs", "text/plain", strings.NewReader("not a graph")); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad graph upload: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	release := setGate(t)
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	g := mwvc.RandomGraph(1, 20, 3)
	gr := uploadGraph(t, srv, g)

	// Occupy the single worker with a gated async solve; wait until it has
	// been dequeued so the queue slot is demonstrably free again.
	wait := false
	resp, sr := postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "test-gated", Seed: 1, Wait: &wait})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d %+v", resp.StatusCode, sr)
	}
	inFlight := false
	for i := 0; i < 5000 && !inFlight; i++ {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inFlight = strings.Contains(string(body), "mwvc_solves_in_flight 1")
		if !inFlight {
			time.Sleep(time.Millisecond)
		}
	}
	if !inFlight {
		t.Fatal("gated solve never entered a worker")
	}
	// Fill the one queue slot...
	resp, sr = postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "test-gated", Seed: 2, Wait: &wait})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submit: status %d %+v", resp.StatusCode, sr)
	}
	// ...and the next request must bounce with backpressure.
	resp, _ = postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "test-gated", Seed: 3, Wait: &wait})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	release()
}

func TestHTTPDeadline504(t *testing.T) {
	setGate(t) // never released: the per-request deadline must fire
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	g := mwvc.RandomGraph(1, 20, 3)
	gr := uploadGraph(t, srv, g)
	resp, sr := postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "test-gated", TimeoutMS: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("blown deadline: status %d %+v, want 504", resp.StatusCode, sr)
	}
	if !strings.Contains(sr.Error, "deadline exceeded") {
		t.Fatalf("504 error %q not the unified deadline form", sr.Error)
	}
}

func TestHTTPTraceSSE(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	g := mwvc.RandomGraph(5, 200, 8)
	gr := uploadGraph(t, srv, g)

	wait := false
	resp, sr := postSolve(t, srv, SolveRequest{Graph: gr.Graph, Algorithm: "mpc", Seed: 2, Wait: &wait})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d", resp.StatusCode)
	}

	traceResp, err := http.Get(srv.URL + "/v1/solve/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	if ct := traceResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("trace content type %q", ct)
	}
	rounds, done := 0, false
	var finalStatus string
	sc := bufio.NewScanner(traceResp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "round" {
				rounds++
			}
			if event == "done" {
				done = true
				var final struct {
					Status string `json:"status"`
					Rounds int    `json:"rounds"`
				}
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("bad done payload %q: %v", data, err)
				}
				finalStatus = final.Status
				if final.Rounds != rounds {
					t.Fatalf("done reports %d rounds, streamed %d round events", final.Rounds, rounds)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done || finalStatus != "done" || rounds == 0 {
		t.Fatalf("trace stream: done=%v status=%q rounds=%d", done, finalStatus, rounds)
	}
}

// TestHTTP256ConcurrentSolves is the acceptance load test: 256 concurrent
// solve requests across algorithms and seeds against one server, all
// admitted (the queue is sized for the burst) and all answered with verified
// solutions. Run under -race in CI, it doubles as a concurrency stress of
// the facade, the registry, the observer fan-out and the MPC message plane.
func TestHTTP256ConcurrentSolves(t *testing.T) {
	const clients = 256
	srv, e := newTestServer(t, Config{Workers: 8, QueueDepth: clients, SolverParallelism: 1})
	graphs := []GraphResponse{
		uploadGraph(t, srv, mwvc.RandomGraph(1, 80, 5)),
		uploadGraph(t, srv, mwvc.RandomGraph(2, 120, 7)),
	}
	algos := []string{"mpc", "centralized", "local-uniform", "bye", "greedy"}

	httpClient := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(SolveRequest{
				Graph:     graphs[i%len(graphs)].Graph,
				Algorithm: algos[i%len(algos)],
				Seed:      uint64(i % 16),
			})
			resp, err := httpClient.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			var sr SolveResponse
			if err := json.Unmarshal(raw, &sr); err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			if sr.Status != StatusDone || sr.Solution == nil || sr.Solution.Weight <= 0 {
				errs <- fmt.Errorf("client %d: bad response %+v", i, sr)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := e.Metrics()
	if m.RequestsTotal != clients || m.Done != clients || m.Rejected != 0 || m.Failed != 0 {
		t.Fatalf("metrics after burst: %+v", m)
	}
	// Every request was answered exactly once: by a solver execution, from
	// the cache, or by coalescing onto an identical in-flight solve (the
	// split between the three is timing-dependent — only the sum is exact).
	if m.SolveCount+m.CacheHits+m.Coalesced != clients {
		t.Fatalf("solves %d + hits %d + coalesced %d != %d", m.SolveCount, m.CacheHits, m.Coalesced, clients)
	}
	if m.RoundsTotal == 0 || m.EventsTotal == 0 {
		t.Fatalf("observer totals not fed under load: %+v", m)
	}
}
