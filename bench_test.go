// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per artifact, in reduced ("quick") form so the whole
// suite completes in minutes. The cmd/affinity-sim binary runs the
// full-scale versions. Each benchmark reports the reproduced artifact
// through -v logging and paper-shaped custom metrics where meaningful.
package affinityaccept

import (
	"fmt"
	"testing"
)

// benchOpts keeps benchmark runs reduced and deterministic.
var benchOpts = Options{Quick: true, Seed: 42}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + res.Render())
		}
	}
}

func BenchmarkTable1Latencies(b *testing.B)     { runExperiment(b, "T1") }
func BenchmarkTable2LockStat(b *testing.B)      { runExperiment(b, "T2") }
func BenchmarkTable3KernelEntries(b *testing.B) { runExperiment(b, "T3") }
func BenchmarkTable4DProf(b *testing.B)         { runExperiment(b, "T4") }
func BenchmarkTable5NICs(b *testing.B)          { runExperiment(b, "T5") }

func BenchmarkFigure2ApacheAMD(b *testing.B)       { runExperiment(b, "F2") }
func BenchmarkFigure3LighttpdAMD(b *testing.B)     { runExperiment(b, "F3") }
func BenchmarkFigure4LatencyCDF(b *testing.B)      { runExperiment(b, "F4") }
func BenchmarkFigure5ApacheIntel(b *testing.B)     { runExperiment(b, "F5") }
func BenchmarkFigure6LighttpdIntel(b *testing.B)   { runExperiment(b, "F6") }
func BenchmarkFigure7RequestsPerConn(b *testing.B) { runExperiment(b, "F7") }
func BenchmarkFigure8ThinkTime(b *testing.B)       { runExperiment(b, "F8") }
func BenchmarkFigure9FileSize(b *testing.B)        { runExperiment(b, "F9") }
func BenchmarkFigure10TwentyPolicy(b *testing.B)   { runExperiment(b, "F10") }

func BenchmarkBalancerLatency(b *testing.B)  { runExperiment(b, "LB1") }
func BenchmarkBalancerMakeTime(b *testing.B) { runExperiment(b, "LB2") }

func BenchmarkAblationRequestTable(b *testing.B)  { runExperiment(b, "A1") }
func BenchmarkAblationStealRatio(b *testing.B)    { runExperiment(b, "A2") }
func BenchmarkAblationApachePinning(b *testing.B) { runExperiment(b, "A3") }
func BenchmarkAblationFlowGroups(b *testing.B)    { runExperiment(b, "A4") }
func BenchmarkAblationWatermarks(b *testing.B)    { runExperiment(b, "A5") }

func BenchmarkExtensionSoftwareRFS(b *testing.B) { runExperiment(b, "X1") }

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// requests processed per wall-clock second on the reference scenario.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var simReqs uint64
	for i := 0; i < b.N; i++ {
		r := Simulate(RunConfig{
			Cores:        12,
			Listen:       AffinityAccept,
			Server:       Apache,
			ConnsPerCore: 128,
			WarmupS:      0.2,
			MeasureS:     0.3,
			Seed:         int64(i),
		})
		simReqs += r.Requests
	}
	b.ReportMetric(float64(simReqs)/b.Elapsed().Seconds(), "simreq/s")
}

// BenchmarkListenSocketComparison reports the three designs' simulated
// throughput side by side as custom metrics (the paper's headline).
func BenchmarkListenSocketComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := ""
		for _, kind := range []ListenKind{StockAccept, FineAccept, AffinityAccept} {
			r := Simulate(RunConfig{
				Cores:  12,
				Listen: kind,
				Server: Apache,
				Seed:   42,
			})
			b.ReportMetric(r.ReqPerSecPerCore, fmt.Sprintf("%s-req/s/core", kind))
			out += fmt.Sprintf("%s: %.0f  ", kind, r.ReqPerSecPerCore)
		}
		if i == 0 && testing.Verbose() {
			b.Log(out)
		}
	}
}
