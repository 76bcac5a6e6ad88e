package evloop

import (
	"net"
	"slices"
	"testing"
	"time"
)

// BenchmarkStageArmWake is the benchmark's evloop.arm_wake stage next
// to the code it measures: arm a parked connection, write one byte from
// the peer and wait for the loop's Ready callback. ns/op is the whole
// cycle; wake-p50-us is the write→Ready latency the benchmark reports.
func BenchmarkStageArmWake(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close()
	conn, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	var readyAt time.Time
	ready := make(chan struct{}, 1)
	loop := New(Config{Callbacks: Callbacks{
		Ready: func(net.Conn) {
			readyAt = time.Now()
			ready <- struct{}{}
		},
		Dead: func(net.Conn) {},
	}})
	loop.Start()
	defer loop.Close()
	var h Handle
	h.Init(conn)
	defer h.Retire()

	one := []byte{1}
	var wakes []time.Duration
	for b.Loop() {
		if !loop.Arm(&h, time.Time{}) {
			b.Fatal("loop refused to arm")
		}
		t0 := time.Now()
		if _, err := peer.Write(one); err != nil {
			b.Fatal(err)
		}
		<-ready
		wakes = append(wakes, readyAt.Sub(t0))
		if _, err := conn.Read(one); err != nil {
			b.Fatal(err)
		}
	}
	slices.Sort(wakes)
	b.ReportMetric(float64(wakes[len(wakes)/2])/1e3, "wake-p50-us")
}
