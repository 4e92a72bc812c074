// Command benchmark measures the weighted vertex cover system end to end on
// four named workloads and, in a separate traced run, times each layer on
// the same inputs. Run it from the repository root:
//
//	bash benchmark/run.sh -workload mpc-dense -seed 1
//	bash benchmark/run.sh -workload all -seed 1 -out run.json
//	bash benchmark/run.sh -workload fast-ingest -seed 1 -trace 1 -spans spans.json
//	bash benchmark/run.sh -compare a1.json a2.json -- b1.json b2.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json, or with -trace 1 its per-layer metrics. A failed
// correctness check makes the command exit 1. README.md describes every
// workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workDir holds generated input files and the -workload all scratch
// files, relative to the working directory; run.sh builds into it too.
const workDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+workloadNames()+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per run, after the fixed warm-up")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds a traced run and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "write host, inputs and every metric to this JSON file")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two sets of -out files by the bounds in BENCHMARK.json: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		worse, err := compareRuns(fs.Args(), "BENCHMARK.json", stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: want -workload NAME -seed N -seconds S -trace 0|1 and no other arguments")
		return 2
	}
	o.trace = traceFlag == 1
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", o.workload, workloadNames())
		return 2
	}
	cfg := config{seed: o.seed, measure: time.Duration(o.seconds) * time.Second, size: fullSize, workDir: workDir}
	res, spans, err := measure(w, cfg, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, res, spans, o); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.correct(o.trace) {
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "benchmark: %s: check failed: %s\n", w.name, e)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// seed1Inputs pins the sha256 of every workload's full-size input for seed
// 1, so that a change to a generator cannot silently change what the
// benchmark measures.
var seed1Inputs = map[string]string{
	"mpc-dense":      "sha256:24ab41a0c289eaa97314a03ce33e689047ec922c0ed3d54a581276b9c82281ce",
	"compress-dense": "sha256:24ab41a0c289eaa97314a03ce33e689047ec922c0ed3d54a581276b9c82281ce",
	"fast-ingest":    "sha256:fe87dbc1a7232953db97f4e8527c8019d215e96444d4d5de6548a8ffd4a69a5d",
	"serve-mixed":    "sha256:1a682abe0ecf41fecad0bfd4c2fd78bb68c50f41471c60e4476ad148a402d8ae",
}

// runResult is everything one workload run measured.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   int       `json:"seconds"`
	Traced    bool      `json:"traced"`
	Input     string    `json:"input_sha256"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

// runFile is the -out file: the host fingerprint and one result per
// workload run.
type runFile struct {
	Host host        `json:"host"`
	Runs []runResult `json:"runs"`
}

// spanFile is the -spans file.
type spanFile struct {
	Runs []spanRun `json:"runs"`
}

type spanRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// measure sets the workload up several times (setup_s is the median), runs
// the untraced measurement and, with trace, the traced one.
func measure(w workload, cfg config, trace bool) (*runResult, []span, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*cfg.measure+2*time.Minute)
	defer cancel()
	res := &runResult{Workload: w.name, Seed: cfg.seed, Seconds: int(cfg.measure / time.Second), Traced: trace, Metrics: metricSet{}}
	var inst instance
	var setups []float64
	for i := 0; i < cfg.size.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil // unreachable before the collection below
		}
		runtime.GC()
		start := time.Now()
		in, err := w.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst = in
	}
	defer inst.close()
	res.Metrics.setDist("setup_s", "s", setups, 0.5)

	digest, err := inst.digest()
	if err != nil {
		return nil, nil, fmt.Errorf("input digest: %w", err)
	}
	res.Input = digest
	if want, ok := seed1Inputs[w.name]; ok && cfg.seed == 1 && cfg.size == fullSize && digest != want {
		return nil, nil, fmt.Errorf("seed 1 input is %s, want %s: the generators changed", digest, want)
	}

	runtime.GC()
	t, err := inst.run(ctx, cfg, res.Metrics)
	if err != nil {
		return nil, nil, err
	}
	res.Metrics.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	var spans []span
	if trace {
		rec := newRecorder()
		runtime.GC()
		tt, err := inst.traced(ctx, cfg, rec, res.Metrics)
		if err != nil {
			return nil, nil, fmt.Errorf("traced run: %w", err)
		}
		res.Metrics.set("trace.overhead_pct", "%", 100*frac(tt.p50-t.p50, t.p50), tt.attempted)
		t.add(tt)
		spans = rec.spans
	}
	res.Attempted, res.Failed, res.Errors = t.attempted, t.failed, t.errs
	return res, spans, nil
}

// declared returns the metrics the run's last line carries.
func declared(trace bool) []decl {
	if trace {
		return perLayer
	}
	return endToEnd
}

// correct reports whether every check passed and every declared metric was
// measured.
func (r *runResult) correct(trace bool) bool {
	if r.Failed > 0 || r.Attempted == 0 {
		return false
	}
	for _, d := range declared(trace) {
		if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
			return false
		}
	}
	return true
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of a run, the traced run's self times, and
// the summary line, and writes the -out and -spans files.
func report(w io.Writer, res *runResult, spans []span, o options) error {
	h := currentHost()
	fmt.Fprintf(w, "# host nproc=%d gomaxprocs=%d cpu=%q go=%s\n", h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion)
	fmt.Fprintf(w, "# %s seed=%d seconds=%d input=%s attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Input, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-16s %-38s %14s %-6s samples=%d\n", res.Workload, name,
			strconv.FormatFloat(m.Value, 'f', 4, 64), m.Unit, m.Samples)
	}
	if o.trace {
		if err := printSelfTimes(w, res.Workload, spans); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, runFile{Host: h, Runs: []runResult{*res}}); err != nil {
			return err
		}
	}
	if o.trace && o.spans != "" {
		if err := writeJSON(o.spans, spanFile{Runs: []spanRun{{res.Workload, res.Seed, spans}}}); err != nil {
			return err
		}
	}
	sum := summary{Correct: res.correct(o.trace), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	for _, d := range declared(o.trace) {
		if m, ok := res.Metrics[d.name]; ok {
			sum.Metrics[d.name] = valueUnit{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runAll runs every workload in its own child process, so each one's peak
// RSS and garbage-collector state are its own, and merges their results.
// Its summary line names each metric "<workload>/<metric>".
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	var tmp string
	if err == nil {
		tmp, err = os.MkdirTemp(workDir, "all-")
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	file := runFile{Host: currentHost()}
	var spans spanFile
	sum := summary{Correct: true, Metrics: map[string]valueUnit{}}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	for _, w := range workloads {
		out := filepath.Join(tmp, w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", traceArg, "-out", out}
		if o.trace && o.spans != "" {
			args = append(args, "-spans", out+".spans")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		err := cmd.Run()
		var rf runFile
		if rerr := readJSON(out, &rf); rerr != nil || len(rf.Runs) != 1 {
			sum.Correct = false
			fmt.Fprintf(stderr, "benchmark: %s produced no result: %v %v\n", w.name, err, rerr)
			continue
		}
		res := rf.Runs[0]
		file.Runs = append(file.Runs, res)
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		sum.Correct = sum.Correct && err == nil && res.correct(o.trace)
		for _, d := range declared(o.trace) {
			if m, ok := res.Metrics[d.name]; ok {
				sum.Metrics[w.name+"/"+d.name] = valueUnit{m.Value, m.Unit}
			}
		}
		if o.trace && o.spans != "" {
			var sf spanFile
			if err := readJSON(out+".spans", &sf); err == nil {
				spans.Runs = append(spans.Runs, sf.Runs...)
			}
		}
	}
	var werr error
	if o.out != "" {
		werr = writeJSON(o.out, file)
	}
	if o.trace && o.spans != "" {
		werr = errors.Join(werr, writeJSON(o.spans, spans))
	}
	if werr != nil {
		fmt.Fprintln(stderr, "benchmark:", werr)
		sum.Correct = false
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}
