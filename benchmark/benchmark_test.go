package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// definition is the part of BENCHMARK.json the test pins against the code.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestDefinitionMatchesCode(t *testing.T) {
	var def definition
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code runs %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what string
		def  []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		code []decl
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(c.def) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", c.what, len(c.def), len(c.code))
			continue
		}
		for i, d := range c.def {
			if d.Name != c.code[i].name || d.Unit != c.code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), code %s (%s)", c.what, i, d.Name, d.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestWorkloadsTiny runs every workload on tiny inputs, untraced and then
// traced: every check must pass, every declared metric must be printed
// with its unit, and the spans must nest with non-negative self time.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, measure: 150 * time.Millisecond, size: tinySize, workDir: t.TempDir()}
			res, spans, err := measure(w, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed > 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			if len(spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if _, err := selfTimes(spans); err != nil {
				t.Fatal(err)
			}
			for _, trace := range []bool{false, true} {
				var buf bytes.Buffer
				if err := report(&buf, res, spans, options{trace: trace}); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the summary: %v", err)
				}
				if !sum.Correct {
					t.Errorf("trace=%t: summary not correct", trace)
				}
				for _, d := range declared(trace) {
					if m, ok := sum.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("trace=%t: metric %s (%s) missing from the summary, got %+v", trace, d.name, d.unit, m)
					}
					if !strings.Contains(buf.String(), " "+d.name+" ") {
						t.Errorf("trace=%t: metric %s not printed by name", trace, d.name)
					}
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host, latency float64) string {
		p := filepath.Join(dir, name)
		rf := runFile{Host: h, Runs: []runResult{{Workload: "mpc-dense", Seed: 1, Input: "sha256:x",
			Metrics: metricSet{"latency_p50_ms": {Value: latency, Unit: "ms"}}}}}
		if err := writeJSON(p, rf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	h := currentHost()
	a, b := write("a.json", h, 100), write("b.json", h, 120)
	var out bytes.Buffer
	worse, err := compareRuns([]string{a, "--", b}, specPath, &out)
	if err != nil || !worse || !strings.Contains(out.String(), "WORSE") {
		t.Fatalf("20%% slower against a 10%% bound: worse=%t err=%v\n%s", worse, err, out.String())
	}
	if worse, err := compareRuns([]string{a, "--", a}, specPath, &out); err != nil || worse {
		t.Fatalf("identical sets: worse=%t err=%v", worse, err)
	}
	other := h
	other.CPUModel += " (other)"
	if _, err := compareRuns([]string{a, "--", write("c.json", other, 100)}, specPath, &out); err == nil {
		t.Fatal("compared runs from different hosts")
	}
}
