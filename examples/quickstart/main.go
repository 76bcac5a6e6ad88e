// Quickstart: compare the three listen-socket designs on a 12-core
// slice of the paper's AMD machine and print throughput and locality.
package main

import (
	"fmt"

	"affinityaccept"
)

func main() {
	fmt.Println("Affinity-Accept quickstart: Apache on 12 AMD cores")
	fmt.Println()
	for _, kind := range []affinityaccept.ListenKind{
		affinityaccept.StockAccept,
		affinityaccept.FineAccept,
		affinityaccept.AffinityAccept,
	} {
		r := affinityaccept.Simulate(affinityaccept.RunConfig{
			Machine: affinityaccept.AMD48(),
			Cores:   12,
			Listen:  kind,
			Server:  affinityaccept.Apache,
			Seed:    1,
		})
		stats := r.Stack.Stats
		local := 0.0
		if stats.Requests > 0 {
			local = 100 * float64(stats.RequestsLocal) / float64(stats.Requests)
		}
		fmt.Printf("%-16s %8.0f req/s/core   %5.1f%% processed locally   %.2f Gbit/s\n",
			kind, r.ReqPerSecPerCore, local, r.GbitsPerSec)
	}
	fmt.Println()
	fmt.Println("Affinity-Accept keeps packet and application processing on one core;")
	fmt.Println("run cmd/affinity-sim for the full paper reproduction.")
}
