package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/fault"
)

// waitMetric polls one engine counter until it reaches want.
func waitMetric(t *testing.T, read func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if read() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s never reached %d (now %d)", what, want, read())
}

// TestCoalescing pins the singleflight contract: N concurrent identical
// requests — including more duplicates than the queue holds — share one
// solver execution and one Solution.
func TestCoalescing(t *testing.T) {
	release := setGate(t)
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2})
	hash := addGraph(t, e, testGraph(t, 1, 30, 3))
	p := SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 9}

	leader, err := e.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, leader, StatusRunning) // holds the only worker at the gate

	// Duplicates well beyond QueueDepth: they attach to the leader instead
	// of taking queue slots, so none is rejected.
	const dups = 6
	followers := make([]*Request, dups)
	for i := range followers {
		f, err := e.Submit(p)
		if err != nil {
			t.Fatalf("duplicate %d rejected: %v", i, err)
		}
		if !f.Snapshot().Coalesced {
			t.Fatalf("duplicate %d not coalesced", i)
		}
		followers[i] = f
	}
	release()

	if err := leader.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := leader.Snapshot()
	leaderSol, err := snap.Sol, snap.Err
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range followers {
		if err := f.Wait(context.Background()); err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
		snap := f.Snapshot()
		sol, err := snap.Sol, snap.Err
		if err != nil || sol != leaderSol {
			t.Fatalf("follower %d: sol=%p err=%v, want the leader's solution %p", i, sol, err, leaderSol)
		}
	}
	if solves, coalesced, done := e.met.solveCount.Load(), e.met.coalesced.Load(), e.met.done.Load(); solves != 1 || coalesced != dups || done != dups+1 {
		t.Fatalf("%d solves, %d coalesced, %d done; want 1 solve, %d coalesced, %d done", solves, coalesced, done, dups, dups+1)
	}
}

// TestOverloadDegradation drives the queue past the threshold and checks that
// an eligible request is downgraded to the fallback solver with a tightened
// improvement budget — and that a request already asking for the fallback is
// left alone.
func TestOverloadDegradation(t *testing.T) {
	release := setGate(t)
	defer release()
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8, DegradeEnabled: true})
	// degradeAt = 0.75 × 8 = 6.
	hash := addGraph(t, e, testGraph(t, 2, 40, 4))

	first, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, first, StatusRunning)
	for i := 0; i < 6; i++ { // fill the queue to the threshold
		if _, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated", Seed: uint64(200 + i)}); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}

	deg, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "mpc", Seed: 1, ImproveBudgetMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded || deg.Params.Algorithm != "pdfast" || deg.RequestedAlgo != "mpc" {
		t.Fatalf("overloaded mpc request not degraded to pdfast: %+v", deg)
	}
	if deg.Params.ImproveBudgetMS != degradedImproveBudgetMS {
		t.Fatalf("degraded improve budget %d, want capped at %d", deg.Params.ImproveBudgetMS, degradedImproveBudgetMS)
	}

	plain, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "pdfast", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Degraded || plain.RequestedAlgo != "" {
		t.Fatalf("pdfast request marked degraded: %+v", plain)
	}

	release()
	if err := deg.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := deg.Snapshot(); snap.Err != nil || snap.Sol == nil {
		t.Fatalf("degraded solve: sol=%v err=%v", snap.Sol, snap.Err)
	}
	if n := e.met.degraded.Load(); n != 1 {
		t.Fatalf("metrics report %d degraded, want 1", n)
	}
}

// TestDrain pins the shutdown sequence: /healthz flips 200 → 503 when the
// drain begins, new submits are refused with ErrDraining (HTTP 503 +
// Retry-After), and already-admitted work still completes.
func TestDrain(t *testing.T) {
	release := setGate(t)
	srv, e := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	hash := uploadGraph(t, srv, testGraph(t, 3, 30, 3)).Graph

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	inflight, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "test-gated"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, inflight, StatusRunning)

	e.StartDrain()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}

	if _, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "greedy"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: %v, want ErrDraining", err)
	}
	body, _ := json.Marshal(SolveRequest{Graph: hash, Algorithm: "greedy"})
	hresp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || hresp.Header.Get("Retry-After") == "" {
		t.Fatalf("solve during drain: %d (Retry-After %q) %s", hresp.StatusCode, hresp.Header.Get("Retry-After"), raw)
	}

	// Admitted work still completes across the drain.
	release()
	if err := inflight.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := inflight.Snapshot(); snap.Err != nil || snap.Sol == nil {
		t.Fatalf("in-flight solve across drain: sol=%v err=%v", snap.Sol, snap.Err)
	}
}

// TestClientDisconnectCancelsSolve is the abandoned-request regression test:
// a synchronous HTTP client hanging up mid-solve must cancel the solve and
// free the worker slot — without the gate ever being released.
func TestClientDisconnectCancelsSolve(t *testing.T) {
	setGate(t) // never released: only cancellation can free the worker
	srv, e := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	hash := uploadGraph(t, srv, testGraph(t, 4, 30, 3)).Graph

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(SolveRequest{Graph: hash, Algorithm: "test-gated"})
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with %d despite disconnect", resp.StatusCode)
		}
		errc <- err
	}()

	waitMetric(t, e.met.inFlight.Load, 1, "in-flight gauge")
	cancel() // client hangs up mid-solve

	if err := <-errc; err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("client error %v, want context.Canceled", err)
	}
	// The abandoned solve fails and frees the only worker.
	waitMetric(t, e.met.abandoned.Load, 1, "abandoned counter")
	waitMetric(t, e.met.failed.Load, 1, "failed counter")

	after, err := e.Submit(SolveParams{GraphHash: hash, Algorithm: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if err := after.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := after.Snapshot(); snap.Err != nil || snap.Sol == nil {
		t.Fatalf("worker not freed after disconnect: sol=%v err=%v", snap.Sol, snap.Err)
	}
}

// TestResponseEncodeFault pins the no-torn-body contract: an injected fault
// in the response encoder yields a clean JSON error with a retryable status
// and Retry-After — and the very next request succeeds.
func TestResponseEncodeFault(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	hash := uploadGraph(t, srv, testGraph(t, 5, 30, 3)).Graph
	body, _ := json.Marshal(SolveRequest{Graph: hash, Algorithm: "greedy"})

	restore := fault.Enable(fault.NewInjector(0, fault.Rule{Point: fault.ResponseEncode, Every: 1, Limit: 1}))
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	restore()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("faulted encode: %d (Retry-After %q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var er errorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
		t.Fatalf("faulted encode body %q is not a clean JSON error: %v", raw, err)
	}

	resp, err = http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var sr SolveResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &sr) != nil || sr.Status != StatusDone {
		t.Fatalf("retry after encode fault: %d %s", resp.StatusCode, raw)
	}
}

// TestCoalescedFollowerTrace: a coalesced follower's trace stream is its
// leader's. The gated solver's reduce events arrive before it blocks at the
// gate, so the follower's stream, opened while the leader waits there,
// carries them and then the leader's outcome, byte for byte as the leader's
// own stream does.
func TestCoalescedFollowerTrace(t *testing.T) {
	release := setGate(t)
	srv, e := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	hash := uploadGraph(t, srv, testGraph(t, 1, 60, 8)).Graph
	wait := false
	body := SolveRequest{Graph: hash, Algorithm: "test-gated", Seed: 9, Wait: &wait}
	_, lead := postSolve(t, srv, body)
	leader, ok := e.Lookup(lead.ID)
	if !ok {
		t.Fatalf("leader %s not addressable", lead.ID)
	}
	waitStatus(t, leader, StatusRunning)
	_, fol := postSolve(t, srv, body)
	if !fol.Coalesced {
		t.Fatalf("duplicate of a running request not coalesced: %+v", fol)
	}
	trace := func(id string) (*http.Response, error) { return http.Get(srv.URL + "/v1/solve/" + id + "/trace") }
	resp, err := trace(fol.ID)
	if err != nil {
		t.Fatal(err)
	}
	release() // the follower's stream is open: the rest of it arrives live
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp, err = trace(lead.ID); err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte("event: reduce-start\n")) || !bytes.Equal(got, want) {
		t.Fatalf("follower's trace:\n%s\nleader's trace:\n%s", got, want)
	}
}
