package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one measured number with its unit and, where it summarizes a
// distribution, the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// decl names a metric declared in BENCHMARK.json together with its unit.
type decl struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run (-trace 0) in this order.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"certified_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics printed by every traced run
// (-trace 1). Each is measured on every workload; a count or fraction of a
// layer that a workload never runs reads 0. Layer timings that exist on only
// some workloads (graph.read_ms, core.phase_ms, serve.queue_ms_p50, ...) are
// reported alongside them, in the human-readable lines and the -out file.
var perLayer = []decl{
	{"reduce.ms", "ms"},
	{"reduce.kernel_edge_frac", "frac"},
	{"solve.ms", "ms"},
	{"lift.ms", "ms"},
	{"verify.ms", "ms"},
	{"solver.rounds", "count"},
	{"core.phases", "count"},
	{"core.alpha", "ratio"},
	{"centralized.final_iterations", "count"},
	{"mpc.words_per_round", "words"},
	{"mpc.messages_per_solve", "count"},
	{"mpc.max_load_frac", "frac"},
	{"compress.local_rounds_per_mpc_round", "count"},
	{"compress.fallback_frac", "frac"},
	{"compress.splits_per_solve", "count"},
	{"pdfast.rounds", "count"},
	{"graph.read_mb_per_s", "MB/s"},
	{"graph.read_alloc_mb", "MB"},
	{"improve.steps_p50", "count"},
	{"improve.weight_reduction_pct", "%"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.coalesced_frac", "frac"},
	{"serve.rejected_frac", "frac"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

// metricSet collects the metrics of one run by name.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64, samples int) {
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// setDist records the q-quantile of xs (in [0,1]) under name.
func (m metricSet) setDist(name, unit string, xs []float64, q float64) {
	m.set(name, unit, quantile(xs, q), len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// host identifies the machine and toolchain a run was measured on; -compare
// refuses to compare runs whose hosts differ.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func currentHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeCounters snapshots the cumulative heap allocation and GC cycle
// counts without stopping the world.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// setRuntime records the allocation and GC cost per operation between two
// snapshots.
func (m metricSet) setRuntime(before, after runtimeCounters, ops int) {
	n := float64(max(ops, 1))
	m.set("runtime.alloc_mb_per_op", "MB", float64(after.allocBytes-before.allocBytes)/(1<<20)/n, ops)
	m.set("runtime.gc_per_op", "count", float64(after.gcCycles-before.gcCycles)/n, ops)
}
