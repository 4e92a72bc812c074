package main

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// spec is the part of BENCHMARK.json that -compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points of xs into four equal groups, by
// the same "exclusive" method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// compareRuns reads two sets of -out files separated by "--" and prints,
// for each workload and end-to-end metric, each set's median and quartiles,
// the change of the medians, and a verdict against the metric's bound. It
// refuses runs from different hosts, or with different inputs for the same
// workload and seed. worse reports that some metric got worse beyond its
// bound.
func compareRuns(args []string, specPath string, w io.Writer) (worse bool, err error) {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		return false, errors.New("usage: -compare A.json... -- B.json...")
	}
	var def spec
	if err := readJSON(specPath, &def); err != nil {
		return false, err
	}
	var sets [2][]runResult
	var hosts []host
	for i, paths := range [][]string{args[:sep], args[sep+1:]} {
		for _, p := range paths {
			var f runFile
			if err := readJSON(p, &f); err != nil {
				return false, err
			}
			hosts = append(hosts, f.Host)
			sets[i] = append(sets[i], f.Runs...)
		}
	}
	for _, h := range hosts[1:] {
		if h != hosts[0] {
			return false, fmt.Errorf("refusing to compare runs from different hosts: %+v and %+v", hosts[0], h)
		}
	}
	inputs := map[string]string{}
	for _, r := range append(slices.Clone(sets[0]), sets[1]...) {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if prev, ok := inputs[key]; ok && prev != r.Input {
			return false, fmt.Errorf("refusing to compare: %s has inputs %s and %s", key, prev, r.Input)
		}
		inputs[key] = r.Input
	}

	fmt.Fprintf(w, "%-15s %-17s %28s %28s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range def.EndToEnd {
			var vals [2][]float64
			for i, set := range sets {
				for _, r := range set {
					if m, ok := r.Metrics[d.Name]; ok && r.Workload == wl.name {
						vals[i] = append(vals[i], m.Value)
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			qa, qb := quartiles(vals[0]), quartiles(vals[1])
			delta := frac(qb[1]-qa[1], qa[1])
			loss := delta
			if d.Better == "higher" {
				loss = -delta
			}
			verdict := "within"
			switch {
			case loss > d.Bound:
				verdict, worse = "WORSE", true
			case -loss > d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-15s %-17s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.2f%% %5.1f%%  %s\n",
				wl.name, d.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*delta, 100*d.Bound, verdict)
		}
	}
	return worse, nil
}
