// Package repro's root benchmarks regenerate every experiment of the
// paper reproduction (one benchmark per table/figure claim — see
// DESIGN.md §3 and EXPERIMENTS.md), reporting the headline quantities
// as custom benchmark metrics. `go test -bench=. -benchmem` therefore
// reproduces the whole evaluation.
package main_test

import (
	"fmt"
	"runtime"
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/experiments"
	"ntisim/internal/harness"
	"ntisim/internal/metrics"
	"ntisim/internal/service"
	"ntisim/internal/telemetry"
)

const benchSeed = 1998

// reportClaims fails the benchmark if an experiment's claims broke.
func reportClaims(b *testing.B, r experiments.Result) {
	b.Helper()
	for name, ok := range r.Claims {
		if !ok {
			b.Errorf("%s: claim failed: %s", r.ID, name)
		}
	}
}

func BenchmarkE1EpsilonTwoNode(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E1Epsilon(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["eps_load0"]*1e9, "eps-ns")
	b.ReportMetric(r.Numbers["eps_load60"]*1e9, "eps-loaded-ns")
}

func BenchmarkE2TimestampClasses(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E2TimestampClasses(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["prec:task (software-only)"]*1e6, "task-us")
	b.ReportMetric(r.Numbers["prec:ISR (kernel-level)"]*1e6, "isr-us")
	b.ReportMetric(r.Numbers["prec:NTI (hardware)"]*1e6, "nti-us")
}

func BenchmarkE3GranularitySweep(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E3GranularitySweep(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["prec_1MHz"]*1e6, "prec1MHz-us")
	b.ReportMetric(r.Numbers["prec_20MHz"]*1e6, "prec20MHz-us")
}

func BenchmarkE4SixteenNode(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E4SixteenNode(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["precision_max"]*1e6, "prec-us")
	b.ReportMetric(r.Numbers["accuracy_max"]*1e6, "acc-us")
}

func BenchmarkE5GPSValidation(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E5GPSValidation(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["validated_acc:wrong-second"]*1e6, "validated-us")
	b.ReportMetric(r.Numbers["naive_acc"]*1e6, "naive-us")
}

func BenchmarkE6RateSync(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E6RateSync(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["det_on"]*1e6, "det-on-us-per-s")
	b.ReportMetric(r.Numbers["det_off"]*1e6, "det-off-us-per-s")
}

func BenchmarkE7WANvsLAN(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E7WANvsLAN(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["ntp_sym"]*1e3, "ntp-ms")
	b.ReportMetric(r.Numbers["nti_lan"]*1e6, "nti-us")
}

func BenchmarkE8AdderVsCounter(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E8AdderVsCounter(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["prec_adder"]*1e6, "adder-us")
	b.ReportMetric(r.Numbers["prec_counter"]*1e6, "counter-us")
}

func BenchmarkE9TimestampPath(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E9TimestampPath(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["gap"]*1e6, "gap-us")
}

func BenchmarkE10BackToBack(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E10BackToBack(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["latch_misattributed"], "latch-bad")
	b.ReportMetric(r.Numbers["guess_misattributed"], "guess-bad")
}

func BenchmarkE11WANOfLANs(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E11WANOfLANs(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["global"]*1e6, "global-us")
	b.ReportMetric(r.Numbers["seg0"]*1e6, "segment-us")
}

func BenchmarkE12ByzantineNode(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E12ByzantineNode(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["prec_tolerant"]*1e6, "tolerant-us")
	b.ReportMetric(r.Numbers["prec_trusting"]*1e6, "trusting-us")
}

func BenchmarkE13HardwareMeasured(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E13HardwareMeasuredPrecision(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["hw_max"]*1e6, "hw-us")
	b.ReportMetric(r.Numbers["truth_max"]*1e6, "truth-us")
}

// BenchmarkClusterScaling measures simulator throughput: simulated
// seconds of a synchronized n-node system per wall-clock second.
//
// The nodes-128/nodes-512 sub-benchmarks run the footnote-2
// WANs-of-LANs topology (nodes-NNN-wolSS: SS segments, on one event
// heap like every topology); nodes-128-flat puts the same 128 nodes on
// one LAN for comparison. The multi-segment speedup comes from
// O(receivers) frame delivery: a CSP fans out to its own segment, not
// to all 128 nodes. See BENCH_kernel.json's "sharded" section and
// DESIGN.md §8 for the heap-size effect.
func BenchmarkClusterScaling(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		n := n
		b.Run(benchName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cluster.New(cluster.Defaults(n, benchSeed))
				c.Start(1)
				c.Sim.RunUntil(30)
			}
			b.ReportMetric(30*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
		})
	}

	const wolSimS = 10.0
	runWol := func(name string, mk func() *cluster.Cluster) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := mk()
				c.Start(1)
				c.RunUntil(wolSimS)
			}
			b.ReportMetric(wolSimS*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
		})
	}
	for _, tc := range []struct{ nodes, segments int }{{128, 8}, {512, 16}} {
		tc := tc
		if tc.nodes == 128 {
			// The flat-LAN shape of the classic scaling series, at a size
			// it was never built for: every CSP fans out to 127 receivers.
			runWol(fmt.Sprintf("nodes-%03d-flat", tc.nodes), func() *cluster.Cluster {
				return cluster.New(cluster.Defaults(tc.nodes, benchSeed))
			})
		}
		runWol(fmt.Sprintf("nodes-%03d-wol%02d", tc.nodes, tc.segments), func() *cluster.Cluster {
			cfg := cluster.Defaults(tc.nodes, benchSeed)
			cfg.Sync.F = 1 // keep gateways per link at F+1 = 2 as n grows
			cfg.Segments = tc.segments
			return cluster.New(cfg)
		})
	}
}

func benchName(n int) string {
	return fmt.Sprintf("nodes-%02d", n)
}

// BenchmarkTelemetryOverhead runs the nodes-32 scaling shape with the
// telemetry registry detached and attached. The disabled variant must
// match BenchmarkClusterScaling/nodes-32 within noise (the instrumented
// hot paths reduce to nil-handle branches — see internal/cluster
// TestTelemetrySteadyStateAllocParity); the enabled variant bounds the
// honest cost of counting everything. Recorded in BENCH_kernel.json's
// "telemetry" section.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		enabled := enabled
		name := "disabled"
		if enabled {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cluster.Defaults(32, benchSeed)
				if enabled {
					cfg.Telemetry = telemetry.New()
				}
				c := cluster.New(cfg)
				c.Start(1)
				c.Sim.RunUntil(30)
			}
			b.ReportMetric(30*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
		})
	}
}

// BenchmarkServing measures the client-population load subsystem on the
// serving-preset topology (16 nodes, 4 segments, F=1): simulated
// seconds per wall second with the full query stream attached, plus the
// served-accuracy headline numbers. Arrivals are tick-batched per node
// (one Poisson draw per 10 ms tick, not one event per client), so
// throughput should be nearly independent of population size — the
// population only scales the per-tick arrival mean. Steady-state
// allocations per query are pinned to zero by
// internal/service TestGeneratorSteadyStateAllocFree.
func BenchmarkServing(b *testing.B) {
	// Match the -preset serving shape: 10 s of convergence before the
	// measured window so served errors are steady-state.
	const settleS, windowS = 10.0, 10.0
	for _, tc := range []struct {
		clients int
		arrival string
	}{
		{100000, "poisson"},
		{1000000, "poisson"},
		{1000000, "mmpp"},
		{10000000, "poisson"},
	} {
		tc := tc
		b.Run(fmt.Sprintf("clients-%.0e-%s", float64(tc.clients), tc.arrival), func(b *testing.B) {
			var st service.Stats
			for i := 0; i < b.N; i++ {
				cfg := cluster.Defaults(16, benchSeed)
				cfg.Segments = 4
				cfg.Sync.F = 1
				cfg.Serving = service.Config{
					Clients:      tc.clients,
					Arrival:      tc.arrival,
					RegionalSkew: 1.5,
				}
				c := cluster.New(cfg)
				// Tighten the a-priori delay bounds like harness.runCell
				// does; precision (and therefore served error) is bound
				// by them.
				db := c.MeasureDelay(0, 1, 12)
				for _, m := range c.Members {
					m.Sync.SetDelayBounds(db)
				}
				c.Start(c.Now() + 1)
				c.RunUntil(c.Now() + settleS)
				c.StartServing(c.Now())
				c.RunUntil(c.Now() + windowS)
				st = c.ServingReport(windowS)
			}
			if st.Queries == 0 {
				b.Fatal("no queries served")
			}
			b.ReportMetric((1+settleS+windowS)*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
			b.ReportMetric(st.QPS, "req/sim-s")
			b.ReportMetric(st.ErrP99S*1e6, "p99-err-us")
		})
	}
}

// BenchmarkSnapshot measures the measurement path itself.
func BenchmarkSnapshot(b *testing.B) {
	c := cluster.New(cluster.Defaults(16, benchSeed))
	c.Start(1)
	c.Sim.RunUntil(20)
	b.ResetTimer()
	var cs metrics.ClusterSample
	for i := 0; i < b.N; i++ {
		cs = c.Snapshot()
	}
	_ = cs
}

// BenchmarkCampaignParallelSpeedup runs a fixed 12-cell campaign
// through the harness with 1 worker and with GOMAXPROCS workers. On a
// multi-core machine the workers-NN variant should show >2× the cells/s
// of workers-01 (cells are independent simulations; the pool is
// embarrassingly parallel), while the JSONL artifacts stay
// byte-identical — see internal/harness TestParallelDeterminism.
func BenchmarkCampaignParallelSpeedup(b *testing.B) {
	spec := harness.Spec{
		Name:         "bench",
		Base:         cluster.Defaults(8, benchSeed),
		Points:       harness.Cross(harness.NodesAxis(4, 8), harness.LoadAxis(0, 0.3, 0.6)),
		Seeds:        []uint64{benchSeed, benchSeed + 1},
		WarmupS:      5,
		WindowS:      20,
		SampleEveryS: 1,
	}
	cells := len(spec.Cells())
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%02d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := spec
				s.Workers = workers
				camp := harness.Run(s)
				if n := len(camp.Failed()); n > 0 {
					b.Fatalf("%d cells failed", n)
				}
			}
			b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

func BenchmarkE14ConvergenceShootout(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E14ConvergenceShootout(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["prec:OA (midpoint)"]*1e6, "oa-mid-us")
	b.ReportMetric(r.Numbers["prec:OA (average)"]*1e6, "oa-avg-us")
}

func BenchmarkE15ReceiverCensus(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.E15ReceiverCensus(benchSeed)
	}
	reportClaims(b, r)
	b.ReportMetric(r.Numbers["missing:rx2 outages"], "outage-missing")
	b.ReportMetric(r.Numbers["badlabel:rx4 wrong-second"], "bad-labels")
}
