package serve

import (
	"context"
	"io"
	"net"
	"testing"
	"time"
)

// BenchmarkAcceptEcho measures the full accept path: dial, one echo
// round trip, close — the short-lived-connection regime where
// accept-queue locality (§3.2/§3.3.1) is the whole story.
func BenchmarkAcceptEcho(b *testing.B) {
	s, err := New(Config{Workers: 4, WorkerHandler: onConn(echoHandler)})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	addr := s.Addr().String()
	msg := []byte("benchmark")
	buf := make([]byte, len(msg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		if _, err := io.ReadFull(conn, buf); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// BenchmarkRequeuePass measures one keep-alive pass through the
// Requeue path: park, wait-readable, re-route through the flow table,
// pop, handle — the long-lived-connection regime that flow-group
// migration (§3.3.2) optimizes.
func BenchmarkRequeuePass(b *testing.B) {
	var srv *Server
	s, err := New(Config{Workers: 2, WorkerHandler: requeueEcho(&srv, 8, 0)})
	if err != nil {
		b.Fatal(err)
	}
	srv = s
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Minute))
	msg := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, msg); err != nil {
			b.Fatal(err)
		}
	}
}
