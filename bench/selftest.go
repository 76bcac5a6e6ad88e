package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// how the benchmark driver computes a spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

const selftestRuns = 5

// runSelftest measures the benchmark against itself: two sets of five
// full runs of every workload on the same code, each run with its own
// seed. For every end-to-end metric and workload it prints both sets'
// medians and quartile distances and the quartile distance of all ten
// readings (the driver's spread) beside the bound, and fails if the two
// medians differ by more than the bound — a benchmark whose own repeat
// trips its bound cannot judge a change.
func runSelftest(o *options) int {
	decl, err := readBenchmarkJSON("..")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run with go run -C bench .)\n", err)
		return 1
	}
	o.seconds = float64(decl.RunSeconds)
	o.trace = false
	// values[set][workload][metric] are the five runs' readings.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for run := 0; run < selftestRuns; run++ {
			for i := range workloads {
				w := &workloads[i]
				ro := *o
				ro.seed = o.seed + int64(set*selftestRuns+run)
				rep, err := runFresh(w, &ro)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selftest: %s: %v\n", w.name, err)
					return 1
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for name, m := range rep.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: selftest: set %d run %d %s done\n", set+1, run+1, w.name)
			}
		}
	}
	fmt.Printf("| workload | metric | median A | IQR/median A | median B | IQR/median B | IQR/median of all ten | |B-A|/A | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|\n")
	status := 0
	for i := range workloads {
		w := workloads[i].name
		for _, d := range decl.EndToEnd {
			a, b := values[0][w][d.Name], values[1][w][d.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			all := append(append([]float64(nil), a...), b...)
			t1, t3 := quartiles(all)
			drift := math.Abs(mb-ma) / ma
			verdict := "ok"
			if d.Bound != nil && drift > *d.Bound {
				verdict = "FAIL"
				status = 1
			}
			bound := math.NaN()
			if d.Bound != nil {
				bound = *d.Bound
			}
			fmt.Printf("| %s | %s (%s) | %.4g | %.1f%% | %.4g | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w, d.Name, d.Unit, ma, 100*(a3-a1)/ma, mb, 100*(b3-b1)/mb, 100*(t3-t1)/median(all), 100*drift, 100*bound, verdict)
		}
	}
	return status
}
