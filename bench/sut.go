package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"affinityaccept/httpaff"
)

// sutWorkers is fixed: the benchmark drives one connection per worker,
// and a later change is compared at the same worker count.
const sutWorkers = 2

const (
	smallSize = 64
	largeSize = 64 << 10
	echoSize  = 16 << 10
)

// payloads are the bytes that cross the wire, all derived from the
// seed: the bodies the bench's own handlers serve and the body the
// bulk workload posts to /echo.
type payloads struct{ small, large, echo []byte }

func makePayloads(seed int64) *payloads {
	rng := rand.New(rand.NewSource(seed))
	gen := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(' ' + rng.Intn(95))
		}
		return b
	}
	return &payloads{small: gen(smallSize), large: gen(largeSize), echo: gen(echoSize)}
}

// sut is the system under test: the shipped httpaff server — every
// Config field but Workers and Handler at its default, so migration and
// the observability plane are on — serving the bench's three routes
// over the host's loopback interface.
type sut struct {
	srv *httpaff.Server
	pay *payloads
	tr  *tracer // nil in the untraced run
}

func startSUT(pay *payloads, tr *tracer) (*sut, error) {
	s := &sut{pay: pay, tr: tr}
	r := httpaff.NewRouter()
	r.HandleMethod("GET", "/small", s.traced(func(ctx *httpaff.RequestCtx) { ctx.Write(s.pay.small) }))
	r.HandleMethod("GET", "/large", s.traced(func(ctx *httpaff.RequestCtx) { ctx.Write(s.pay.large) }))
	r.HandleMethod("POST", "/echo", s.traced(func(ctx *httpaff.RequestCtx) { ctx.Write(ctx.Body()) }))
	srv, err := httpaff.New(httpaff.Config{Workers: sutWorkers, Handler: r.Serve})
	if err != nil {
		return nil, err
	}
	srv.Start()
	s.srv = srv
	return s, nil
}

// traced wraps a route handler in the tracer's handler span. Only a
// request that carries the id header is recorded, so the reference
// window of a traced run pays one failed header lookup and no more.
func (s *sut) traced(h httpaff.HandlerFunc) httpaff.HandlerFunc {
	if s.tr == nil {
		return h
	}
	return func(ctx *httpaff.RequestCtx) {
		id, ok := parseID(ctx.Header("x-bench-id"))
		if !ok {
			h(ctx)
			return
		}
		slot := s.tr.enter(id)
		h(ctx)
		slot.exit(ctx.Worker())
	}
}

func (s *sut) addr() string { return s.srv.Addr().String() }

// stop shuts the server down.
func (s *sut) stop() error { return shutDown(s.srv.Shutdown) }

// shutDown calls a server's Shutdown; taking longer than five seconds
// is an error, because a server that cannot stop is not a valid run.
func shutDown(shutdown func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown did not finish in 5s: %w", err)
	}
	return nil
}
