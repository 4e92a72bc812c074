// Load-driving client for mwvc-serve: uploads a couple of generated graphs
// once (content addressing makes re-uploads free), then fires a burst of
// concurrent solve requests across algorithms and seeds, retrying 429
// backpressure and 503 transients with jittered exponential backoff (any
// Retry-After the server sends is honored as the floor), and reports
// latency, cache-hit, degraded-response and error statistics.
//
// Run the server, then the client:
//
//	go run ./cmd/mwvc-serve &
//	go run ./examples/loadclient -addr http://localhost:8437 -requests 256 -concurrency 64
//
// With -deadline set, a fraction of the requests (-deadline-frac) carry an
// improve_budget_ms anytime-improvement budget, exercising the deadline
// path under concurrency; the report then splits latency per class and adds
// the mean weight improvement the budget bought.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	mwvc "repro"
)

type graphResponse struct {
	Graph    string `json:"graph"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

type solveResponse struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Cached   bool           `json:"cached"`
	Degraded bool           `json:"degraded"`
	Solution *mwvc.Solution `json:"solution"`
	Error    string         `json:"error"`
}

// retryDelay computes the next backoff sleep: the current exponential step
// with half-to-full jitter (decorrelating the herd a burst of 429s creates),
// floored at whatever Retry-After the server sent.
func retryDelay(backoff time.Duration, retryAfter string) time.Duration {
	delay := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
		if floor := time.Duration(secs) * time.Second; delay < floor {
			delay = floor
		}
	}
	return delay
}

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8437", "mwvc-serve base URL")
		requests    = flag.Int("requests", 256, "total solve requests to send")
		concurrency = flag.Int("concurrency", 64, "concurrent in-flight requests")
		n           = flag.Int("n", 2000, "vertices per generated instance")
		d           = flag.Float64("d", 16, "average degree per generated instance")
		seeds       = flag.Int("seeds", 8, "distinct seeds (lower = more cache hits)")
		deadline    = flag.Duration("deadline", 0, "anytime improvement budget to send on a fraction of requests (0 = plain traffic only)")
		deadlineFr  = flag.Float64("deadline-frac", 0.5, "fraction of requests that carry the -deadline improvement budget")
	)
	flag.Parse()
	if *seeds < 1 {
		*seeds = 1
	}
	client := &http.Client{Timeout: 5 * time.Minute}

	// Upload two instances; solve requests refer to them by content hash.
	var hashes []string
	for seed := uint64(1); seed <= 2; seed++ {
		g := mwvc.RandomGraph(seed, *n, *d)
		var buf bytes.Buffer
		if err := mwvc.WriteGraph(&buf, g); err != nil {
			fatal(err)
		}
		resp, err := client.Post(*addr+"/v1/graphs", "text/plain", &buf)
		if err != nil {
			fatal(err)
		}
		var gr graphResponse
		if err := decode(resp, &gr); err != nil {
			fatal(fmt.Errorf("upload: %w", err))
		}
		fmt.Printf("graph %s: n=%d m=%d\n", gr.Graph[:23]+"…", gr.Vertices, gr.Edges)
		hashes = append(hashes, gr.Graph)
	}

	algos := []string{"mpc", "centralized", "pdfast", "bye", "greedy"}
	// Every tierStride-th request names the fast tier instead of an
	// algorithm, exercising the server-side tier→algorithm resolution (and
	// its cache-key sharing with explicit pdfast requests). A stride keeps
	// the mix exact and the run reproducible.
	const tierStride = 7
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, *concurrency)
		mu       sync.Mutex
		byClass  = map[string][]time.Duration{}
		improved []float64 // weight reduction percent per deadline request
		cached   atomic.Int64
		degraded atomic.Int64
		retries  atomic.Int64
		failures atomic.Int64
	)
	// In -deadline mode, every deadlineStride-th request carries the budget;
	// a stride (not a coin flip) keeps the mix exact and the run reproducible.
	deadlineStride := 0
	if *deadline > 0 && *deadlineFr > 0 {
		if *deadlineFr > 1 {
			*deadlineFr = 1
		}
		deadlineStride = int(math.Round(1 / *deadlineFr))
	}
	start := time.Now()
	for i := 0; i < *requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			class := "plain"
			payload := map[string]any{
				"graph": hashes[i%len(hashes)],
				"seed":  i % *seeds,
			}
			if i%tierStride == 0 {
				payload["tier"] = "fast"
			} else {
				payload["algorithm"] = algos[i%len(algos)]
			}
			if deadlineStride > 0 && i%deadlineStride == 0 {
				class = "deadline"
				payload["improve_budget_ms"] = deadline.Milliseconds()
			}
			body, _ := json.Marshal(payload)
			t0 := time.Now()
			backoff := 50 * time.Millisecond
			const maxBackoff = 2 * time.Second
			for {
				resp, err := client.Post(*addr+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "request %d: %v\n", i, err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
					// 429 backpressure or a 503 transient (drain, injected
					// fault): back off exponentially with jitter and retry.
					ra := resp.Header.Get("Retry-After")
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					retries.Add(1)
					time.Sleep(retryDelay(backoff, ra))
					if backoff *= 2; backoff > maxBackoff {
						backoff = maxBackoff
					}
					continue
				}
				var sr solveResponse
				if err := decode(resp, &sr); err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "request %d: %v\n", i, err)
					return
				}
				if sr.Status != "done" || sr.Solution == nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "request %d: status %s error %q\n", i, sr.Status, sr.Error)
					return
				}
				if sr.Cached {
					cached.Add(1)
				}
				if sr.Degraded {
					degraded.Add(1)
				}
				mu.Lock()
				byClass[class] = append(byClass[class], time.Since(t0))
				if imp := sr.Solution.Improvement; imp != nil && imp.WeightBefore > 0 {
					improved = append(improved, 100*(imp.WeightBefore-imp.WeightAfter)/imp.WeightBefore)
				}
				mu.Unlock()
				return
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	quantile := func(ls []time.Duration, q float64) time.Duration {
		if len(ls) == 0 {
			return 0
		}
		return ls[int(q*float64(len(ls)-1))]
	}
	ok := 0
	for _, ls := range byClass {
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		ok += len(ls)
	}
	fmt.Printf("\n%d requests in %v (%.0f req/s): %d ok, %d failed, %d cache hits, %d degraded, %d backoff retries\n",
		*requests, elapsed.Round(time.Millisecond), float64(ok)/elapsed.Seconds(),
		ok, failures.Load(), cached.Load(), degraded.Load(), retries.Load())
	for _, class := range []string{"plain", "deadline"} {
		ls := byClass[class]
		if len(ls) == 0 {
			continue
		}
		fmt.Printf("latency[%s] n=%d p50=%v p90=%v p99=%v max=%v\n",
			class, len(ls),
			quantile(ls, 0.50).Round(time.Millisecond), quantile(ls, 0.90).Round(time.Millisecond),
			quantile(ls, 0.99).Round(time.Millisecond), quantile(ls, 1.0).Round(time.Millisecond))
	}
	if len(improved) > 0 {
		mean := 0.0
		for _, p := range improved {
			mean += p
		}
		mean /= float64(len(improved))
		fmt.Printf("improvement[%v budget]: %d solves improved, mean weight reduction %.2f%%\n",
			*deadline, len(improved), mean)
	}

	// One certified response, decoded through the Solution JSON round-trip.
	body, _ := json.Marshal(map[string]any{"graph": hashes[0], "algorithm": "mpc"})
	resp, err := client.Post(*addr+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	var sr solveResponse
	if err := decode(resp, &sr); err != nil {
		fatal(err)
	}
	fmt.Printf("mpc solve: weight=%.1f certified ratio=%.3f rounds=%d\n",
		sr.Solution.Weight, sr.Solution.CertifiedRatio, sr.Solution.Rounds)
}

func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadclient:", err)
	os.Exit(1)
}
