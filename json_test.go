package mwvc

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSolutionJSONGreedy pins the wire form of the solver that raises no
// duals of its own: greedy's certified_ratio encodes as a number (it was
// null while greedy went uncertified), the keys keep their names and order,
// and Weight, Bound and CertifiedRatio round-trip bit for bit.
func TestSolutionJSONGreedy(t *testing.T) {
	g := RandomGraph(1, 50, 4)
	sol, err := Solve(context.Background(), g, WithAlgorithm(AlgoGreedy), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sol)
	if err != nil {
		t.Fatalf("marshal of greedy solution failed: %v", err)
	}
	at := -1
	for _, key := range []string{`"cover":`, `"weight":`, `"bound":`, `"certified_ratio":`, `"reduction":`} {
		i := strings.Index(string(data), key)
		if i <= at {
			t.Fatalf("key %s missing or out of order in %s", key, data)
		}
		at = i
	}
	if strings.Contains(string(data), `"certified_ratio":null`) {
		t.Fatalf("greedy ratio encoded as null: %s", data)
	}
	var back Solution
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2]float64{{back.Weight, sol.Weight}, {back.Bound, sol.Bound}, {back.CertifiedRatio, sol.CertifiedRatio}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("round-trip changed a float: %v → %v", f[1], f[0])
		}
	}
	if len(back.Cover) != len(sol.Cover) {
		t.Fatalf("round-trip cover %d → %d", len(sol.Cover), len(back.Cover))
	}
}

// TestSolutionJSONRoundTrip pins the wire format for a certified solution:
// every field survives, the finite ratio encodes as a number, and a Solution
// embedded in a larger response struct (the service's case) encodes too.
func TestSolutionJSONRoundTrip(t *testing.T) {
	g := RandomGraph(2, 80, 6)
	sol, err := Solve(context.Background(), g, WithAlgorithm(AlgoMPC), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	type response struct {
		ID       string    `json:"id"`
		Solution *Solution `json:"solution"`
	}
	data, err := json.Marshal(response{ID: "s-1", Solution: sol})
	if err != nil {
		t.Fatalf("marshal of embedded solution failed: %v", err)
	}
	var back response
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got := back.Solution
	if got.Weight != sol.Weight || got.Bound != sol.Bound ||
		got.CertifiedRatio != sol.CertifiedRatio ||
		got.Rounds != sol.Rounds || got.Phases != sol.Phases || got.Exact != sol.Exact {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, sol)
	}
	for i := range sol.Cover {
		if got.Cover[i] != sol.Cover[i] {
			t.Fatalf("cover bit %d flipped in round-trip", i)
		}
	}
}

// TestSolutionJSONExact pins that an exact optimum (ratio 1, Exact true)
// keeps its finite ratio and exact flag on the wire.
func TestSolutionJSONExact(t *testing.T) {
	g := RandomGraph(3, 20, 3)
	sol, err := Solve(context.Background(), g, WithAlgorithm(AlgoExact), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	var back Solution
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Exact || back.CertifiedRatio != 1 {
		t.Fatalf("exact solution round-trip: exact=%v ratio=%v", back.Exact, back.CertifiedRatio)
	}
}
