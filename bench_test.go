// Benchmarks, one per simulating table and figure driver of the paper's
// evaluation (Fig. 4 reads Fig. 9's sweep, so BenchmarkFig9 covers it),
// plus the headline HAL-vs-baseline comparisons. Each benchmark iteration runs the
// corresponding experiment at reduced fidelity (short simulated durations)
// so `go test -bench=.` regenerates every artifact end to end; use
// cmd/halbench for full-fidelity numbers.
package halsim_test

import (
	"testing"

	"halsim"
)

// benchOpts shrinks experiment durations so a single benchmark iteration
// stays in the hundreds-of-milliseconds range.
func benchOpts() halsim.ExperimentOptions {
	return halsim.ExperimentOptions{
		Duration:      20 * halsim.Millisecond,
		TraceDuration: 40 * halsim.Millisecond,
		Seed:          1,
	}
}

func runBench(b *testing.B, cfg halsim.Config, rc halsim.RunConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := halsim.Run(cfg, rc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("no packets completed")
		}
	}
}

// BenchmarkModeNAT80G measures the simulator end-to-end for the three
// modes of the quickstart comparison.
func BenchmarkModeNAT80G(b *testing.B) {
	for _, mode := range []halsim.Mode{halsim.SNICOnly, halsim.HostOnly, halsim.HAL} {
		b.Run(mode.String(), func(b *testing.B) {
			runBench(b,
				halsim.Config{Mode: mode, Fn: halsim.NAT},
				halsim.RunConfig{Duration: 20 * halsim.Millisecond, RateGbps: 80})
		})
	}
}

// BenchmarkFig2Fig3 regenerates the SNIC-vs-host comparison behind Fig. 2
// (throughput, p99) and Fig. 3 (power, energy efficiency).
func BenchmarkFig2Fig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := halsim.CompareSNICHost(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 11 {
			b.Fatal("missing comparison points")
		}
		_ = r.Fig2()
		_ = r.Fig3()
	}
}

// BenchmarkTable2 regenerates the SLO-throughput search of Table II.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := halsim.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 10 {
			b.Fatal("missing SLO points")
		}
	}
}

// BenchmarkFig5 regenerates the software-load-balancer study of Fig. 5.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := halsim.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 10 {
			b.Fatal("missing SLB points")
		}
	}
}

// BenchmarkFig8 regenerates the trace synthesis behind Fig. 8.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := halsim.Fig8(benchOpts())
		if len(t.Rows) != 3 {
			b.Fatal("missing workloads")
		}
	}
}

// BenchmarkFig9 regenerates the Host/SNIC/HAL rate sweeps of Fig. 9, whose
// SNIC-only and host-only points are also Fig. 4's.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := halsim.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != 2 {
			b.Fatal("missing functions")
		}
	}
}

// BenchmarkTable5 regenerates the datacenter-workload matrix of Table V
// (3 workloads × 10 configurations × 3 modes).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := halsim.Table5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 30 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig10 regenerates the BF-3 vs Sapphire Rapids comparison.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := halsim.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 10 {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkCosts regenerates the §VII-C cost measurement.
func BenchmarkCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := halsim.Costs(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 renders the static acceleration-support matrix.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(halsim.Table1().Rows) != 23 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkSimulatorThroughput reports how many simulated packets per
// wall-second the engine sustains — the simulator's own speed.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT}
	rc := halsim.RunConfig{Duration: 50 * halsim.Millisecond, RateGbps: 80}
	b.ResetTimer()
	var pkts uint64
	for i := 0; i < b.N; i++ {
		res, err := halsim.Run(cfg, rc)
		if err != nil {
			b.Fatal(err)
		}
		pkts += res.Sent
	}
	b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkFleetBuild builds the benchmark's 1024-server fleet — HAL NAT
// servers in 8 pods behind 4:1 oversubscribed uplinks, p2c dispatch, 6.25
// Gbps offered per server — and runs it for one simulated microsecond,
// which is almost all build. B/op and allocs/op are what a fleet costs to
// set up; DESIGN.md §8 divides them per server.
func BenchmarkFleetBuild(b *testing.B) {
	const servers = 1024
	cfg := halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 1,
		Cluster: &halsim.ClusterConfig{Servers: servers, Dispatch: "p2c", Pods: 8, Oversub: 4}}
	rc := halsim.RunConfig{Duration: halsim.Microsecond, RateGbps: 6.25 * servers}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := halsim.Run(cfg, rc); err != nil {
			b.Fatal(err)
		}
	}
}
