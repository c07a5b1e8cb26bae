package halsim_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halsim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from the current implementation")

// goldenRuns renders a battery of short experiment runs into one text
// artifact. Every numeric field is printed with %v (shortest exact float
// representation), so the comparison against testdata/golden_runs.txt is
// byte-exact: any change to event ordering, RNG draw order, or arithmetic
// shows up as a diff. The fixture was generated from the pre-pooling,
// container/heap-based engine and must keep matching after hot-path
// refactors. The telemetry config is applied to every run: the observability
// layer is read-only by contract, so the SAME fixture must hold whether it
// is off (zero value) or fully on.
func goldenRuns(t *testing.T, tel halsim.TelemetryConfig) string {
	t.Helper()
	var b strings.Builder
	line := func(name string, res halsim.Result) {
		fmt.Fprintf(&b, "%s: sent=%d completed=%d sentAll=%d completedAll=%d droppedAll=%d inflight=%d avg=%v max=%v p50=%v p99=%v p999=%v power=%v eff=%v snicShare=%v drop=%v wake=%d fwdTh=%v adj=%v\n",
			name, res.Sent, res.Completed, res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd,
			res.AvgGbps, res.MaxGbps, res.P50us, res.P99us, res.P999us,
			res.AvgPowerW, res.EffGbpsPerW, res.SNICShare, res.DropFraction,
			res.Wakeups, res.FinalFwdTh, res.LBPAdjustments)
	}

	for _, mode := range []halsim.Mode{halsim.HostOnly, halsim.SNICOnly, halsim.HAL} {
		for _, fn := range []halsim.FnID{halsim.NAT, halsim.REM} {
			res, err := halsim.Run(
				halsim.Config{Mode: mode, Fn: fn, Seed: 7, Telemetry: tel},
				halsim.RunConfig{Duration: 8 * halsim.Millisecond, RateGbps: 60})
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, fn, err)
			}
			line(fmt.Sprintf("%v/%v", mode, fn), res)
		}
	}

	// SLB exercises the forwarding-core path and director credit loop.
	res, err := halsim.Run(
		halsim.Config{Mode: halsim.SLB, Fn: halsim.NAT, SLBCores: 1, SLBFwdThGbps: 30, Seed: 7, Telemetry: tel},
		halsim.RunConfig{Duration: 8 * halsim.Millisecond, RateGbps: 60})
	if err != nil {
		t.Fatal(err)
	}
	line("SLB/NAT", res)

	// Trace-modulated workload exercises the epoch re-draw path.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Telemetry: tel},
		halsim.RunConfig{Duration: 16 * halsim.Millisecond, Workload: &halsim.Workloads[2]})
	if err != nil {
		t.Fatal(err)
	}
	line("HAL/NAT/hadoop", res)

	// Pipelined two-function setup (two stations per side).
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Pipeline: halsim.Count, PipelineOn: true, Seed: 7, Telemetry: tel},
		halsim.RunConfig{Duration: 8 * halsim.Millisecond, RateGbps: 40})
	if err != nil {
		t.Fatal(err)
	}
	line("HAL/NAT+Count", res)

	// Faulted, drained run: crashes, rehoming, the conservation ledger.
	plan := halsim.NewFaultPlan(7).
		CrashSNICCores(2*halsim.Millisecond, 5*halsim.Millisecond, 2)
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Faults: plan, Telemetry: tel},
		halsim.RunConfig{Duration: 8 * halsim.Millisecond, RateGbps: 60, Drain: true,
			PhaseMarks: []halsim.Time{2 * halsim.Millisecond, 5 * halsim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	line("HAL/NAT/faulted", res)
	for i, ph := range res.Phases {
		fmt.Fprintf(&b, "  phase%d: [%v,%v) avg=%v p99=%v power=%v completed=%d\n",
			i, ph.Start, ph.End, ph.AvgGbps, ph.P99us, ph.AvgPowerW, ph.Completed)
	}
	return b.String()
}

// TestGoldenDeterminism locks the simulator's numeric output to a committed
// fixture: same seed + config must produce byte-identical results across
// refactors of the hot path (value-type event heap, packet pooling).
func TestGoldenDeterminism(t *testing.T) {
	got := goldenRuns(t, halsim.TelemetryConfig{})
	path := filepath.Join("testdata", "golden_runs.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from golden fixture %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenDeterminismTelemetryOn re-runs the whole battery with every
// telemetry collector enabled and compares against the SAME fixture: the
// observability layer must be purely read-only. Its sampling ticks insert
// extra engine events, but those only read state, so every metric the
// fixture records is untouched.
func TestGoldenDeterminismTelemetryOn(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestGoldenDeterminism")
	}
	got := goldenRuns(t, halsim.TelemetryConfig{Timeline: true, TraceEvery: 64})
	path := filepath.Join("testdata", "golden_runs.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("telemetry perturbed the simulation: output diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenDeterminismProfiled turns the flight recorder on across the
// whole battery and compares against the SAME fixture: a single server runs
// serially, so the recorder stays dormant — Prof is accepted and records
// nothing — and must leave every result untouched. (Fleets, where it does
// record, are held to their own fixture by TestClusterGoldenParallelProfiled.)
func TestGoldenDeterminismProfiled(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestGoldenDeterminism")
	}
	path := filepath.Join("testdata", "golden_runs.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	got := goldenRuns(t, halsim.TelemetryConfig{Timeline: true, TraceEvery: 64, Prof: true})
	if got != string(want) {
		t.Fatalf("flight recorder perturbed the simulation: output diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
