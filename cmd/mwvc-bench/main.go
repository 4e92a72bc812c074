// Command mwvc-bench regenerates the evaluation tables of DESIGN.md's
// "Experiment index". Each experiment corresponds to one theorem or lemma of
// the paper (the paper has no empirical tables of its own).
//
//	mwvc-bench                 # run everything, full size
//	mwvc-bench -quick          # reduced sizes (seconds instead of minutes)
//	mwvc-bench -run E1,E4      # a subset
//	mwvc-bench -list           # what exists
//	mwvc-bench -csv out/       # additionally dump each table as CSV
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	var (
		runIDs = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		quick  = flag.Bool("quick", false, "reduced instance sizes")
		seed   = flag.Uint64("seed", 1, "random seed for the whole suite")
		list   = flag.Bool("list", false, "list experiments and exit")
		csvDir = flag.String("csv", "", "also write each table as CSV into this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	var selected []experiments.Experiment
	if *runIDs == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "mwvc-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("# MWVC reproduction suite — %d experiment(s), %s mode, seed %d\n\n", len(selected), mode, *seed)
	for _, e := range selected {
		start := time.Now()
		arts, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mwvc-bench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("## %s — %s\n\nClaim (%s). Completed in %v.\n\n",
			e.ID, e.Title, e.Claim, time.Since(start).Round(time.Millisecond))
		for i, a := range arts {
			if err := a.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mwvc-bench:", err)
				os.Exit(1)
			}
			if tb, ok := a.(*stats.Table); ok && *csvDir != "" {
				if err := writeCSV(*csvDir, fmt.Sprintf("%s_%d.csv", e.ID, i), tb); err != nil {
					fmt.Fprintln(os.Stderr, "mwvc-bench:", err)
					os.Exit(1)
				}
			}
		}
	}
}

func writeCSV(dir, name string, tb *stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.RenderCSV(f)
}
