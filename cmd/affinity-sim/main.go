// Command affinity-sim regenerates the paper's tables and figures on
// the simulator.
//
// Usage:
//
//	affinity-sim -list
//	affinity-sim F2 T2          # run selected experiments
//	affinity-sim -quick -all    # reduced sweeps, everything
//
// With no experiment named it runs them all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"affinityaccept"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "reduced sweeps and windows")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	if *list {
		for _, id := range affinityaccept.Experiments() {
			fmt.Printf("%-4s %s\n", id, affinityaccept.DescribeExperiment(id))
		}
		return
	}
	ids := flag.Args()
	if *all || len(ids) == 0 {
		ids = affinityaccept.Experiments()
	}
	opt := affinityaccept.Options{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		res, err := affinityaccept.RunExperiment(id, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		fmt.Printf("(%s took %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
