// Longlived demonstrates the half of the paper that accept-time
// stealing cannot deliver: flow-group migration (§3.3.2) for long-lived
// keep-alive connections.
//
// The demo constructs the pathological workload — every persistent
// connection's source port hashes into a flow group owned by worker 0 —
// and runs it twice against the real serve.Server: once with stealing
// only (every keep-alive pass re-enters worker 0's queue and is stolen
// remotely, forever) and once with the migration loop on (non-busy
// workers claim worker 0's hot groups, so later passes land locally).
// The side-by-side report shows locality jumping and a nonzero
// migration count.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"affinityaccept/internal/loadgen"
	"affinityaccept/serve"
)

const (
	workers  = 4
	groups   = 64
	conns    = 24
	payload  = 64
	workTime = 200 * time.Microsecond // per-request service time
	window   = 2 * time.Second
)

func main() {
	fmt.Println("skewed keep-alive workload: every connection hashes into a flow group owned by worker 0")
	fmt.Println()

	steal, err := run(true)
	if err != nil {
		fmt.Println("cannot listen (sandboxed environment?):", err)
		return
	}
	migr, err := run(false)
	if err != nil {
		fmt.Println("second run failed:", err)
		return
	}

	fmt.Printf("%-22s %12s %12s %12s\n", "", "locality", "stolen", "migrations")
	fmt.Printf("%-22s %11.1f%% %12d %12d\n", "stealing only (§3.3.1)",
		steal.LocalityPct(), steal.ServedStolen, steal.Migrations)
	fmt.Printf("%-22s %11.1f%% %12d %12d\n", "with migration (§3.3.2)",
		migr.LocalityPct(), migr.ServedStolen, migr.Migrations)
	fmt.Println()
	fmt.Println("stealing alone keeps the clients served but every pass stays remote;")
	fmt.Println("migration re-points the hot groups so the same connections become local:")
	for _, w := range migr.Workers {
		fmt.Printf("  worker %d owns %2d flow groups, %2d of them claimed by migration\n", w.Worker, w.GroupsOwned, w.MigratedIn)
	}
}

// run serves the skewed workload once and returns the final stats.
func run(stealOnly bool) (serve.Stats, error) {
	var srv *serve.Server
	srv, err := serve.New(serve.Config{
		Addr:             "127.0.0.1:0",
		Workers:          workers,
		FlowGroups:       groups,
		DisableMigration: stealOnly,
		MigrateInterval:  50 * time.Millisecond,
		Backlog:          workers * 64,
		HighPct:          20, // engage stealing (and thus migration) early
		LowPct:           5,
		Handler: func(conn net.Conn) {
			buf := make([]byte, payload)
			if _, err := io.ReadFull(conn, buf); err != nil {
				conn.Close()
				return
			}
			time.Sleep(workTime)
			if _, err := conn.Write(buf); err != nil {
				conn.Close()
				return
			}
			if !srv.Requeue(conn) { // keep-alive: back through the flow table
				conn.Close()
			}
		},
	})
	if err != nil {
		return serve.Stats{}, err
	}
	srv.Start()

	// Flow groups steered to worker 0, asked of the server itself.
	base := loadgen.PortBase(groups)
	var hot []int
	for g := 0; g < srv.FlowGroups(); g++ {
		if srv.OwnerOf(uint16(base+g)) == 0 {
			hot = append(hot, g)
		}
	}

	mode := "stealing only"
	if !stealOnly {
		mode = "stealing + migration"
	}
	fmt.Printf("run (%s): %d workers, %d flow groups, %d long-lived conns on worker 0's %d groups\n",
		mode, workers, srv.FlowGroups(), conns, len(hot))

	var wg sync.WaitGroup
	stop := time.Now().Add(window)
	for i := 0; i < conns; i++ {
		conn, err := loadgen.DialGroup(srv.Addr().String(), hot[i%len(hot)], groups)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(window + 30*time.Second))
			msg := make([]byte, payload)
			for time.Now().Before(stop) {
				if _, err := conn.Write(msg); err != nil {
					return
				}
				if _, err := io.ReadFull(conn, msg); err != nil {
					return
				}
			}
		}(conn)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Println("shutdown:", err)
	}
	st := srv.Stats()
	fmt.Printf("  -> locality %.1f%%, %d migrations, %d requeues\n\n",
		st.LocalityPct(), st.Migrations, st.Requeued)
	return st, nil
}
