// Command mwvc solves a minimum-weight vertex cover instance with any of
// the repository's algorithms and prints the cover weight, the certified
// approximation ratio, and the round/phase accounting.
//
// Usage examples:
//
//	mwvc -gen gnp -n 10000 -d 64 -weights uniform -algo mpc
//	mwvc -in graph.txt -algo bye
//	mwvc -gen powerlaw -n 2000 -d 16 -algo mpc -compare
//	mwvc -gen gnp -n 20000 -d 256 -algo mpc -trace
//	mwvc -gen gnp -n 50000 -d 64 -algo mpc -timeout 2s
//
// The -algo list and its help text derive from the solver registry, so the
// flag accepts exactly what the library accepts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	mwvc "repro"
	"repro/internal/cli"
	"repro/internal/graph"
)

func main() {
	var (
		algo      = flag.String("algo", string(mwvc.AlgoMPC), "algorithm to run; one of:\n"+mwvc.AlgorithmHelp()+"\n")
		eps       = flag.Float64("eps", 0.1, "accuracy parameter ε (ratio 2+O(ε))")
		seed      = flag.Uint64("seed", 1, "random seed (same seed ⇒ same run)")
		inFile    = flag.String("in", "", "read the graph from this file instead of generating one")
		generator = flag.String("gen", "gnp", "generator: "+strings.Join(cli.Generators(), " | "))
		n         = flag.Int("n", 10000, "number of vertices (generated instances)")
		d         = flag.Float64("d", 32, "target average degree (generated instances)")
		weights   = flag.String("weights", "uniform", "weight model: "+strings.Join(cli.WeightModels(), " | "))
		paper     = flag.Bool("paper-constants", false, "use the paper's literal asymptotic constants for the MPC algorithm")
		reduce    = flag.Bool("reduce", true, "kernelize the instance with the weighted reduction rules before solving; -reduce=false solves the raw graph")
		improve   = flag.Duration("improve", 0, "run the anytime local-search improvement stage with this wall-clock budget after the solve (0 = off)")
		compare   = flag.Bool("compare", false, "also run the baselines and print a comparison")
		trace     = flag.Bool("trace", false, "stream per-phase and per-round solve events to stderr")
		timeout   = flag.Duration("timeout", 0, "abort the solve after this long (0 = no deadline)")
	)
	flag.Parse()

	// `mwvc -algo help` prints the registry table (name, tier, summary) and
	// exits without solving — the scriptable form of the flag help text.
	if *algo == "help" {
		fmt.Println(mwvc.AlgorithmHelp())
		return
	}

	g, err := loadGraph(*inFile, *generator, *n, *d, *weights, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance: n=%d m=%d avg_degree=%.1f total_weight=%.1f\n",
		g.NumVertices(), g.NumEdges(), g.AverageDegree(), g.TotalWeight())

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// runOne solves with one algorithm and prints the result line (plus, for
	// the primary run, the kernelization line — the kernel is a function of
	// the graph alone, so printing it per comparison algorithm would only
	// repeat it). The
	// returned error is already user-facing: a deadline surfaces as the clean
	// "deadline exceeded after N rounds" form (rounds counted live from the
	// observer stream, since the solve result is lost on abort), never as the
	// raw wrapped context.DeadlineExceeded.
	runOne := func(a mwvc.Algorithm, extra []mwvc.Option, traced, primary bool) (*mwvc.Solution, error) {
		rounds := 0
		counter := mwvc.ObserverFunc(func(e mwvc.Event) {
			if e.Kind == mwvc.KindRound {
				rounds = e.Round
			}
		})
		obs := mwvc.Observer(counter)
		if traced {
			obs = mwvc.MultiObserver(counter, mwvc.ObserverFunc(traceEvent))
		}
		opts := []mwvc.Option{
			mwvc.WithAlgorithm(a),
			mwvc.WithEpsilon(*eps),
			mwvc.WithSeed(*seed),
			mwvc.WithObserver(obs),
		}
		if *paper {
			opts = append(opts, mwvc.WithPaperConstants())
		}
		if !*reduce {
			opts = append(opts, mwvc.WithoutReduction())
		}
		if *improve > 0 {
			opts = append(opts, mwvc.WithImprovement(*improve))
		}
		opts = append(opts, extra...)
		start := time.Now()
		sol, err := mwvc.Solve(ctx, g, opts...)
		if err != nil {
			if msg, ok := cli.DeadlineMessage(err, rounds); ok {
				return nil, fmt.Errorf("%s (-timeout %v)", msg, *timeout)
			}
			return nil, err
		}
		elapsed := time.Since(start)
		if primary && sol.Reduction != nil {
			r := sol.Reduction
			fmt.Printf("kernel: n %d→%d m %d→%d (isolated %d, pendant %d, domination %d, neighborhood %d) forced_weight=%.2f  [%v]\n",
				r.OriginalVertices, r.KernelVertices, r.OriginalEdges, r.KernelEdges,
				r.Isolated, r.Pendant, r.Domination, r.NeighborhoodWeight,
				r.ForcedWeight, time.Duration(r.ReduceNS).Round(time.Millisecond))
		}
		if primary && sol.Improvement != nil {
			imp := sol.Improvement
			delta := imp.WeightBefore - imp.WeightAfter
			pct := 0.0
			if imp.WeightBefore > 0 {
				pct = 100 * delta / imp.WeightBefore
			}
			state := "budget"
			if imp.Converged {
				state = "converged"
			}
			fmt.Printf("improve: weight %.2f→%.2f (-%.2f, %.2f%%) steps=%d (redundant %d, swaps %d) %s  [%v]\n",
				imp.WeightBefore, imp.WeightAfter, delta, pct,
				imp.Steps, imp.RedundantRemoved, imp.Swaps, state,
				time.Duration(imp.ImproveNS).Round(time.Millisecond))
		}
		line := fmt.Sprintf("%-18s weight=%.2f  certified_ratio=%.4f (bound %.2f)",
			a, sol.Weight, sol.CertifiedRatio, sol.Bound)
		if sol.Rounds > 0 {
			line += fmt.Sprintf("  rounds=%d", sol.Rounds)
		}
		if sol.Phases > 0 {
			line += fmt.Sprintf("  phases=%d", sol.Phases)
		}
		if sol.Exact {
			line += "  (optimal)"
		}
		fmt.Printf("%s  [%v]\n", line, elapsed.Round(time.Millisecond))
		return sol, nil
	}

	// The primary run's error (a blown -timeout, an unknown algorithm) is the
	// command's outcome: report it cleanly and exit nonzero. Comparison runs
	// are best-effort — their errors print inline and the sweep continues.
	primary, err := runOne(mwvc.Algorithm(*algo), nil, *trace, true)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *algo, err))
	}
	if *compare {
		// The kernel is a function of the graph alone: when the primary run
		// showed zero shrink, re-kernelizing per comparison algorithm would
		// only repeat the (bit-identical) no-op — skip the stage instead.
		// When it did shrink, each comparison pays the reduce once and gets
		// the smaller kernel back, normally a net win.
		var extra []mwvc.Option
		irreducible := primary.Reduction != nil &&
			primary.Reduction.KernelVertices == primary.Reduction.OriginalVertices
		if irreducible {
			extra = append(extra, mwvc.WithoutReduction())
		}
		for _, a := range mwvc.Algorithms() {
			if string(a) == *algo {
				continue
			}
			if a == mwvc.AlgoExact && g.NumVertices() > 64 && (!*reduce || irreducible) {
				continue // the raw graph is out of exact's domain for sure
			}
			if a == mwvc.AlgoCongestedClique && g.NumVertices() > 5000 {
				continue // one machine per vertex; keep comparisons snappy
			}
			if _, err := runOne(a, extra, false, false); err != nil {
				fmt.Printf("%-18s error: %v\n", a, err)
			}
		}
	}
}

// traceEvent renders one solve event for -trace. Events stream to stderr so
// the result lines on stdout stay machine-parseable.
func traceEvent(e mwvc.Event) {
	switch e.Kind {
	case mwvc.KindPhaseStart:
		fmt.Fprintf(os.Stderr, "[trace] phase %d start: degree=%.1f machines=%d iters=%d active_edges=%d\n",
			e.Phase, e.Degree, e.Machines, e.Iterations, e.ActiveEdges)
	case mwvc.KindRound:
		fmt.Fprintf(os.Stderr, "[trace]   round %d: phase=%d active_edges=%d dual=%.3f\n",
			e.Round, e.Phase, e.ActiveEdges, e.DualBound)
	case mwvc.KindPhaseEnd:
		fmt.Fprintf(os.Stderr, "[trace] phase %d done: active_edges=%d dual=%.3f\n",
			e.Phase, e.ActiveEdges, e.DualBound)
	case mwvc.KindFinalPhase:
		fmt.Fprintf(os.Stderr, "[trace] final phase: iterations=%d rounds=%d dual=%.3f\n",
			e.Iterations, e.Round, e.DualBound)
	case mwvc.KindReduceStart:
		fmt.Fprintf(os.Stderr, "[trace] reduce start: edges=%d\n", e.ActiveEdges)
	case mwvc.KindReduceEnd:
		fmt.Fprintf(os.Stderr, "[trace] reduce done: kernel_edges=%d\n", e.ActiveEdges)
	case mwvc.KindImproveStart:
		fmt.Fprintf(os.Stderr, "[trace] improve start: weight=%.3f edges=%d\n", e.Weight, e.ActiveEdges)
	case mwvc.KindImproveStep:
		fmt.Fprintf(os.Stderr, "[trace]   improve step %d: weight=%.3f\n", e.Round, e.Weight)
	case mwvc.KindImproveEnd:
		fmt.Fprintf(os.Stderr, "[trace] improve done: weight=%.3f steps=%d\n", e.Weight, e.Round)
	case mwvc.KindCompress:
		fmt.Fprintf(os.Stderr, "[trace] compress %d: local_rounds=%d groups=%d rounds=%d active_edges=%d dual=%.3f\n",
			e.Phase, e.Iterations, e.Machines, e.Round, e.ActiveEdges, e.DualBound)
	}
}

func loadGraph(inFile, generator string, n int, d float64, weights string, seed uint64) (*graph.Graph, error) {
	if inFile != "" {
		// The file is read once, one newline-aligned chunk per core, and
		// its edge records (8 bytes each) are placed straight into the CSR
		// arrays, so -in handles million-edge instances.
		return graph.OpenFile(inFile)
	}
	return cli.BuildGraph(generator, n, d, weights, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mwvc:", err)
	os.Exit(1)
}
