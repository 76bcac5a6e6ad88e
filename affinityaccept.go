// Package affinityaccept reproduces the evaluation of "Improving
// Network Connection Locality on Multicore Systems" (Pesterev, Strauss,
// Zeldovich, Morris — EuroSys 2012).
//
// The paper's contribution, Affinity-Accept, keeps every phase of a TCP
// connection's processing — NIC receive, softirq protocol work,
// accept(), reads, writes, transmit — on one core, by combining NIC
// flow-group steering, per-core accept queues, connection stealing and
// flow-group migration.
//
// This package is the simulator's facade:
//
//   - RunExperiment regenerates every table and figure of the paper's
//     evaluation (see DESIGN.md for the experiment index and
//     EXPERIMENTS.md for paper-vs-measured results; cmd/affinity-sim
//     runs them from the command line).
//
//   - Simulate runs one configured workload on a simulated multicore
//     machine (cache-coherence cost model, NIC with FDir flow steering,
//     Linux-like TCP stack with the Stock-, Fine- and Affinity-Accept
//     listen sockets, Apache/lighttpd application models, httperf-like
//     load generation).
//
// The production server that applies the same mechanism to real
// traffic is a separate set of packages that links none of this: serve
// (per-worker SO_REUSEPORT listeners, stealing, migration), httpaff,
// proxyaff and wsaff.
package affinityaccept

import (
	"affinityaccept/internal/experiments"
	"affinityaccept/internal/mem"
	"affinityaccept/internal/tcp"
)

// Options tunes experiment execution (Quick shrinks sweeps).
type Options = experiments.Options

// Result is a reproduced table or figure; Render prints it in the
// paper's presentation shape.
type Result = experiments.Result

// RunConfig configures one simulation run.
type RunConfig = experiments.RunConfig

// RunResult is one simulation run's measurements.
type RunResult = experiments.RunResult

// ServerKind selects the application model (Apache, ApacheUnpinned,
// Lighttpd).
type ServerKind = experiments.ServerKind

// Application models.
const (
	Apache         = experiments.Apache
	ApacheUnpinned = experiments.ApacheUnpinned
	Lighttpd       = experiments.Lighttpd
)

// ListenKind selects the listen-socket design under test.
type ListenKind = tcp.ListenKind

// The three listen-socket designs of the paper's evaluation.
const (
	StockAccept    = tcp.StockAccept
	FineAccept     = tcp.FineAccept
	AffinityAccept = tcp.AffinityAccept
)

// Machine describes a simulated host (chips, cores, Table-1 latencies).
type Machine = mem.Machine

// AMD48 returns the paper's 48-core AMD evaluation machine.
func AMD48() Machine { return mem.AMD48() }

// Intel80 returns the paper's 80-core Intel evaluation machine.
func Intel80() Machine { return mem.Intel80() }

// Experiments lists the identifiers of every reproducible table and
// figure (T1–T5, F2–F10, LB1/LB2, ablations A1–A5).
func Experiments() []string { return experiments.IDs() }

// DescribeExperiment returns an experiment's one-line description.
func DescribeExperiment(id string) string { return experiments.Describe(id) }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, opt Options) (Result, error) {
	return experiments.RunByID(id, opt)
}

// Simulate executes one simulation run (with saturation search when no
// explicit load is configured) and returns its measurements.
func Simulate(cfg RunConfig) RunResult { return experiments.Run(cfg) }
