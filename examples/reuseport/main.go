// Reuseport applies Affinity-Accept's user-space half to Go's real
// network stack via the serve package: SO_REUSEPORT gives each worker
// its own kernel accept queue (the per-core clone queues of §3.2), and
// the balancer underneath adds the paper's busy tracking and 5:1
// proportional-share stealing, so a slow worker's connections get
// picked up by idle ones.
//
// Worker 0 is made artificially slow; the final report shows the other
// workers rescuing its backlog (nonzero "stolen" counts).
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"affinityaccept/serve"
)

func main() {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	srv, err := serve.New(serve.Config{
		Addr:    "127.0.0.1:0",
		Workers: workers,
		HighPct: 20, // mark a lagging worker busy early so the demo steals visibly
		LowPct:  5,
		WorkerHandler: func(worker int, conn net.Conn) {
			if worker == 0 {
				time.Sleep(2 * time.Millisecond) // the "busy" core
			}
			io.Copy(conn, conn) // echo
			conn.Close()
		},
	})
	if err != nil {
		fmt.Println("cannot listen (sandboxed environment?):", err)
		return
	}
	srv.Start()
	addr := srv.Addr().String()
	if srv.Sharded() {
		fmt.Printf("%d SO_REUSEPORT listeners on %s (per-core accept queues)\n", workers, addr)
	} else {
		fmt.Printf("shared listener on %s (%d worker queues, round-robin)\n", addr, workers)
	}

	// Self-test clients: burst everything at once.
	const total = 200
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			msg := []byte(fmt.Sprintf("hello %d", i))
			conn.Write(msg)
			conn.(*net.TCPConn).CloseWrite()
			io.ReadAll(conn)
		}(i)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Println("shutdown:", err)
	}
	fmt.Println()
	for _, w := range srv.Stats().Workers {
		fmt.Printf("worker %d: %3d served from its own queue, %3d stolen from others\n", w.Worker, w.ServedLocal, w.ServedStolen)
	}
}
