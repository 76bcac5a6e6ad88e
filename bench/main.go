// Command bench is the repository's benchmark: four closed-loop
// loopback workloads against the shipped httpaff server, run in-process,
// with every response verified. See README.md in this directory.
//
//	go run -C bench .                   every workload, end-to-end metrics
//	go run -C bench . --trace 1         every workload, per-layer metrics and span files
//	go run -C bench . --selftest        two sets of five runs: spread and drift against the bounds
//	go run -C bench . --workload keepalive --seed 7 --seconds 30 --trace 0
//
// The last form is what the benchmark driver calls; it prints one JSON
// object as the last line of standard output.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// report is the one-line result of a single-workload run.
type report struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// exitInvalid is the child's exit code for a run whose validity guards
// failed; the parent retries such a run once.
const exitInvalid = 3

func main() {
	var o options
	var trace int
	workloadName := flag.String("workload", "", "run one workload (churn, keepalive, pipelined, bulk) and print one JSON line; default: all, as a table")
	flag.Int64Var(&o.seed, "seed", 1, "seed for payload bytes and the first candidate source port")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: the traced run (per-layer metrics, span files); 0: the end-to-end run")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: two timed set-ups, short warm-up and stages, no placement-share guard")
	flag.StringVar(&o.outDir, "out", "out", "directory the traced run writes its span files to")
	selftest := flag.Bool("selftest", false, "run two sets of five runs per workload and compare them with the bounds in BENCHMARK.json")
	child := flag.String("child", "", "internal: in this process, \"run\" the workload or do one \"setup\"")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		os.Exit(2)
	}
	var w *workload
	if *workloadName != "" {
		if w = findWorkload(*workloadName); w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
	}

	switch {
	case *child != "" && w == nil:
		fmt.Fprintln(os.Stderr, "bench: --child needs --workload")
		os.Exit(2)
	case *child == "setup":
		if err := setupOnce(w, &o); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: set-up: %v\n", w.name, err)
			os.Exit(1)
		}
	case *child != "":
		os.Exit(runChild(w, &o))
	case *selftest:
		os.Exit(runSelftest(&o))
	case w != nil:
		rep, err := runFresh(w, &o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d requests, %d failed, over the host's loopback interface\n", w.name, rep.Attempted, rep.Failed)
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(&o))
	}
}

// runChild runs one workload in this process and prints its report: the
// real counts, whether or not every operation succeeded. Only a run that
// could not be measured at all, or that its validity guards reject,
// prints none.
func runChild(w *workload, o *options) int {
	run := runUntraced
	if o.trace {
		run = runTraced
	}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		if errors.Is(err, errInvalid) {
			return exitInvalid
		}
		return 1
	}
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]reportMetric{}}
	for _, m := range res.metrics {
		rep.Metrics[m.name] = reportMetric{m.value, m.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// childArgs are the arguments of a child process of kind "run" or
// "setup" for workload w.
func childArgs(kind string, w *workload, o *options) []string {
	args := []string{"--child", kind, "--workload", w.name,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--out", o.outDir}
	if o.trace {
		args = append(args, "--trace", "1")
	}
	if o.quick {
		args = append(args, "--quick")
	}
	return args
}

// setupRuns is how many fresh processes time a set-up.
const setupRuns = 40

// measureSetup times the set-up the way a user pays for it: from
// before a fresh process of this program is started until it says that
// both clients hold a verified response — the Go runtime's and every
// package's initialisation, New, Start, both dials and the first
// operation on each connection. Each set-up has a process of its own,
// so none is warmed by the one before, and none leaves servers, heap or
// source ports behind in the process that is measured afterwards.
//
// setup_s is the first quartile of the set-up times, not their median.
// A set-up is the same work every time and interference only ever adds
// to it, so the times are skewed to the right, and the fast quarter is
// the steadier reading of the work itself: over 24 runs the first
// quartile varied by 8% (quartile distance over median) where the
// median varied by 19% (see README, "what setup_s times").
func measureSetup(exe string, w *workload, o *options) (float64, error) {
	runs := setupRuns
	if o.quick {
		runs = 2
	}
	var secs []float64
	ready := make([]byte, len("ready\n"))
	for i := 0; i < runs; i++ {
		cmd := exec.Command(exe, childArgs("setup", w, o)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		_, rerr := io.ReadFull(out, ready)
		d := time.Since(t0)
		if err := errors.Join(rerr, cmd.Wait()); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, d.Seconds())
	}
	q1, _ := quartiles(secs)
	return q1, nil
}

// runFresh runs one workload in a fresh child process of this program,
// so no run inherits another's heap, peak RSS or TIME_WAIT ports, and
// returns the child's report, with setup_s added on an untraced run. A
// run its validity guards reject is retried once and then given up; it
// is never reported.
func runFresh(w *workload, o *options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setupS float64
	if !o.trace {
		if setupS, err = measureSetup(exe, w, o); err != nil {
			return nil, err
		}
	}
	for attempt := 1; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
		cmd := exec.CommandContext(ctx, exe, childArgs("run", w, o)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		var exit *exec.ExitError
		if errors.As(err, &exit) && exit.ExitCode() == exitInvalid && attempt == 1 {
			fmt.Fprintf(os.Stderr, "bench: %s: retrying once\n", w.name)
			continue
		}
		// A child that counted failed operations exits 1 and still
		// prints its report.
		line := bytes.TrimSpace(out)
		if len(line) == 0 && err != nil {
			return nil, fmt.Errorf("run failed: %w", err)
		}
		var rep report
		if err := json.Unmarshal(line, &rep); err != nil {
			return nil, fmt.Errorf("unreadable report %q: %w", line, err)
		}
		if !o.trace {
			rep.Metrics["setup_s"] = reportMetric{setupS, "s"}
		}
		return &rep, nil
	}
}

// runAll runs every workload and prints one table, in the order
// BENCHMARK.json declares the metrics.
func runAll(o *options) int {
	decl, err := readBenchmarkJSON("..")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run with go run -C bench .)\n", err)
		return 1
	}
	order := decl.EndToEnd
	if o.trace {
		order = decl.PerLayer
	}
	fmt.Printf("loopback, in-process server, closed loop of %d clients; %d workers; nproc %d; %s; seed %d; window %gs\n",
		clients, sutWorkers, runtime.NumCPU(), runtime.Version(), o.seed, o.seconds)
	status := 0
	for i := range workloads {
		w := &workloads[i]
		rep, err := runFresh(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		if !rep.Correct {
			status = 1
		}
		fmt.Printf("\n%s: %d requests, %d failed (fail_share %g)\n", w.name, rep.Attempted, rep.Failed,
			float64(rep.Failed)/float64(rep.Attempted))
		for _, d := range order {
			if m, ok := rep.Metrics[d.Name]; ok {
				fmt.Printf("  %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	return status
}
