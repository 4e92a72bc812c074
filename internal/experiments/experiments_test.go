package experiments

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("position %d: %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Claim == "" || all[i].Run == nil {
			t.Fatalf("%s: incomplete registration", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 found")
	}
}

// TestAllExperimentsQuick runs every experiment in quick mode: the tables
// must be produced without error and contain data rows. This is the
// integration test of the whole stack (generators → algorithms → metrics).
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite skipped in -short mode")
	}
	cfg := Config{Quick: true, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			arts, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			nTables := 0
			for _, a := range arts {
				if tb, ok := a.(*stats.Table); ok {
					nTables++
					if tb.NumRows() == 0 {
						t.Fatalf("table %q has no rows", tb.Title)
					}
				}
			}
			if nTables == 0 {
				t.Fatal("no tables")
			}
		})
	}
}

func TestRunAndRender(t *testing.T) {
	e, _ := ByID("E8") // fast even in full mode
	arts, err := e.Run(Config{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, a := range arts {
		if err := a.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	for _, want := range []string{"E8: dual ≤ OPT", "| instance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("duality sandwich violated:\n%s", out)
	}
}

// TestE1CompressedSeriesFewerRounds pins E1c's headline: on the standard
// E1 instance family, wherever the degree is high enough for sampled
// phases to run at all, the round-compressed solver's accounted MPC round
// count is strictly below the native solver's, and the compressed rounds
// carry more than one simulated LOCAL round each.
func TestE1CompressedSeriesFewerRounds(t *testing.T) {
	pts, err := e1RoundsComparison(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, p := range pts {
		if p.NativePhases == 0 {
			// Below the switch-over threshold both solvers jump straight to
			// the final centralized phase; the round bills coincide there.
			if p.CompressedRounds != p.NativeRounds {
				t.Fatalf("d=%v: no sampled phases, yet rounds differ (%d vs %d)",
					p.Degree, p.CompressedRounds, p.NativeRounds)
			}
			continue
		}
		compared++
		if p.CompressedRounds >= p.NativeRounds {
			t.Fatalf("d=%v: compressed rounds %d not strictly below native %d",
				p.Degree, p.CompressedRounds, p.NativeRounds)
		}
		if p.Density <= 1 {
			t.Fatalf("d=%v: compressed rounds carry %.2f simulated LOCAL rounds each, want > 1",
				p.Degree, p.Density)
		}
	}
	if compared == 0 {
		t.Fatal("no degree point ran sampled phases; the comparison is vacuous")
	}
}

// TestE12CertifiesGreedy pins that E12's greedy row carries a certified
// ratio, as the facade's solves do: greedy's cover over the Bar-Yehuda–Even
// bound, a number at least 1.
func TestE12CertifiesGreedy(t *testing.T) {
	e, _ := ByID("E12")
	arts, err := e.Run(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := arts[0].(*stats.Table)
	algo, col := slices.Index(tb.Columns, "algo"), slices.Index(tb.Columns, "cert_ratio")
	rows := 0
	for _, row := range tb.Rows() {
		if row[algo] != "greedy" {
			continue
		}
		rows++
		ratio, err := strconv.ParseFloat(row[col], 64)
		if err != nil || !(ratio >= 1) || math.IsInf(ratio, 0) {
			t.Errorf("greedy cert_ratio %q, want a finite number ≥ 1", row[col])
		}
	}
	if rows == 0 {
		t.Fatal("E12 has no greedy row")
	}
}

func TestIDNum(t *testing.T) {
	if idNum("E2") != 2 || idNum("E11") != 11 {
		t.Fatal("idNum broken")
	}
}
