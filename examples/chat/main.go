// Chat demonstrates the wsaff WebSocket subsystem end to end: a chat
// room where every message a client sends is broadcast to every
// connected client through the per-worker broadcast shards.
//
// The demo starts an httpaff server whose /ws route upgrades into
// wsaff, connects a handful of scripted clients, lets them chat, and
// prints the transport + wsaff statistics: the point to look at is that
// every handler pass ran on the worker owning the connection's flow
// group (locality), the sockets sat parked (not occupying workers)
// between messages, and the broadcast deliveries came from each
// worker's local subscriber shard.
//
// Run it:
//
//	go run ./examples/chat
package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"affinityaccept/httpaff"
	"affinityaccept/wsaff"
)

const (
	workers = 4
	clients = 6
	rounds  = 3
)

func main() {
	// The room: every opened socket subscribes; every text message is
	// stamped with a nickname and broadcast to the whole room.
	var ws *wsaff.WS
	ws, err := wsaff.New(wsaff.Config{
		Workers: workers,
		OnOpen: func(c *wsaff.Conn) {
			c.Subscribe()
		},
		OnMessage: func(c *wsaff.Conn, op wsaff.Op, payload []byte) {
			if c.Data == nil {
				// First message names the speaker.
				c.Data = string(payload)
				ws.Broadcast(wsaff.OpText, []byte(fmt.Sprintf("* %s joined (worker %d)", payload, c.Worker())))
				return
			}
			ws.Broadcast(wsaff.OpText, []byte(fmt.Sprintf("%s: %s", c.Data, payload)))
		},
	})
	if err != nil {
		panic(err)
	}
	ws.Start()

	r := httpaff.NewRouter()
	r.Handle("/ws", func(ctx *httpaff.RequestCtx) { ws.Upgrade(ctx) })
	srv, err := httpaff.New(httpaff.Config{Workers: workers, Handler: r.Serve})
	if err != nil {
		panic(err)
	}
	srv.Start()
	fmt.Printf("chat server on %s (%d workers)\n\n", srv.Addr(), workers)

	// Scripted clients: join, chat a few rounds, read everything the
	// room broadcasts.
	var wg sync.WaitGroup
	var printMu sync.Mutex
	done := make(chan struct{})
	for i := 0; i < clients; i++ {
		c, err := wsaff.Dial(srv.Addr().String(), "/ws")
		if err != nil {
			panic(err)
		}
		name := fmt.Sprintf("client-%d", i)
		c.Send(wsaff.OpText, []byte(name))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				op, msg, err := c.ReadMessage()
				if err != nil || op == wsaff.OpClose {
					return
				}
				if name == "client-0" { // one client narrates the room
					printMu.Lock()
					fmt.Printf("  %s\n", msg)
					printMu.Unlock()
				}
			}
		}()
		defer c.Close()

		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				time.Sleep(time.Duration(50+10*i) * time.Millisecond)
				if err := c.Send(wsaff.OpText, []byte(fmt.Sprintf("hello, round %d", round))); err != nil {
					return
				}
			}
			<-done
		}(i)
	}

	// Let the room chat, then shut down.
	time.Sleep(time.Duration(rounds)*200*time.Millisecond + 500*time.Millisecond)
	close(done)

	st := srv.Stats()
	wst := ws.Stats()
	fmt.Printf("\nroom: %d sockets open, %d subscribed, %d parked between messages\n",
		wst.Open, wst.Subscribers, st.Parked)
	fmt.Printf("traffic: %d messages in, %d broadcasts fanned out to %d deliveries (codec reuse %.1f%%)\n",
		wst.MessagesIn, wst.Broadcasts, wst.Delivered, wst.Pool.ReusePct())
	fmt.Printf("locality: %.1f%% of %d passes served by the owning worker, %d requeues\n",
		st.LocalityPct(), st.Served, st.Requeued)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	ws.Close()
	wg.Wait()
}
