package halsim_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"halsim"
)

// goldenClusterRuns renders a battery of fleet runs into one text
// artifact, the cluster counterpart of goldenRuns: every numeric Result
// field printed with %v, compared byte-exactly against
// testdata/golden_cluster_runs.txt. The same fixture must hold at any
// shard count (serial, a few groups, one server per LP) and with
// telemetry or the flight recorder on — the fleet partition along fabric
// links is only admissible because it is bit-exact, and the observers
// are read-only by contract.
func goldenClusterRuns(t *testing.T, tel halsim.TelemetryConfig, shards int) string {
	t.Helper()
	var b strings.Builder
	line := func(name string, res halsim.Result) {
		fmt.Fprintf(&b, "%s: sent=%d completed=%d sentAll=%d completedAll=%d droppedAll=%d inflight=%d avg=%v max=%v p50=%v p99=%v p999=%v power=%v eff=%v snicShare=%v drop=%v wake=%d fwdTh=%v adj=%v\n",
			name, res.Sent, res.Completed, res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd,
			res.AvgGbps, res.MaxGbps, res.P50us, res.P99us, res.P999us,
			res.AvgPowerW, res.EffGbpsPerW, res.SNICShare, res.DropFraction,
			res.Wakeups, res.FinalFwdTh, res.LBPAdjustments)
	}

	// Round-robin fleet under pressure: dispatch is blind, so the
	// per-server HLBs absorb the load and some servers drop.
	res, err := halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Telemetry: tel, Shards: shards,
			Cluster: &halsim.ClusterConfig{Servers: 8}},
		halsim.RunConfig{Duration: 6 * halsim.Millisecond, RateGbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet8/rr/HAL/NAT", res)

	// Power-of-two-choices fleet with a mid-run server blackout, drained:
	// the dispatcher's in-flight counts route around the dead server, the
	// conservation ledger still closes to zero.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Telemetry: tel, Shards: shards,
			Faults:  halsim.NewFaultPlan(7).CrashServer(3, 1*halsim.Millisecond, 2*halsim.Millisecond),
			Cluster: &halsim.ClusterConfig{Servers: 8, Dispatch: "p2c"}},
		halsim.RunConfig{Duration: 4 * halsim.Millisecond, RateGbps: 120, Drain: true,
			PhaseMarks: []halsim.Time{1 * halsim.Millisecond, 2 * halsim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet8/p2c/crash", res)
	for i, ph := range res.Phases {
		fmt.Fprintf(&b, "  phase%d: [%v,%v) avg=%v p99=%v power=%v completed=%d\n",
			i, ph.Start, ph.End, ph.AvgGbps, ph.P99us, ph.AvgPowerW, ph.Completed)
	}

	// Non-HAL fleet (no LBP director) with a slower fabric: the sampler
	// path without control state, wire latency dominating the RTT.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.SNICOnly, Fn: halsim.NAT, Seed: 7, Telemetry: tel, Shards: shards,
			Cluster: &halsim.ClusterConfig{Servers: 5, WireNS: 10 * halsim.Microsecond, LinkGbps: 25}},
		halsim.RunConfig{Duration: 6 * halsim.Millisecond, RateGbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet5/rr/SNICOnly/slowfabric", res)

	// A heavier function across a mid-size fleet.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.REM, Seed: 7, Telemetry: tel, Shards: shards,
			Cluster: &halsim.ClusterConfig{Servers: 12, Dispatch: "p2c"}},
		halsim.RunConfig{Duration: 6 * halsim.Millisecond, RateGbps: 150})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet12/p2c/HAL/REM", res)

	// Fleet scale: 64 servers. At shards >= 4 this exercises many servers
	// per group LP; at shards 65+ one server per LP.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Telemetry: tel, Shards: shards,
			Cluster: &halsim.ClusterConfig{Servers: 64}},
		halsim.RunConfig{Duration: 3 * halsim.Millisecond, RateGbps: 400})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet64/rr/HAL/NAT", res)

	// Datacenter scale: 1024 servers in 8 pods behind 4:1 oversubscribed
	// ToR uplinks, least-conn dispatch. At shards 65 the partition runs 65
	// worker LPs; pods span group LPs, so the ingress-side pod-uplink
	// serialization path is exercised under every engine.
	res, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 7, Telemetry: tel, Shards: shards,
			Cluster: &halsim.ClusterConfig{Servers: 1024, Dispatch: "least-conn",
				Pods: 8, Oversub: 4}},
		halsim.RunConfig{Duration: halsim.Millisecond, RateGbps: 1024})
	if err != nil {
		t.Fatal(err)
	}
	line("fleet1024/least-conn/pods8", res)

	return b.String()
}

func compareClusterGolden(t *testing.T, got, label string) {
	t.Helper()
	path := filepath.Join("testdata", "golden_cluster_runs.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s diverged from golden fixture %s\n--- got ---\n%s\n--- want ---\n%s", label, path, got, want)
	}
}

// TestClusterGoldenDeterminism locks the fleet runner's numeric output to
// a committed fixture on the serial engine.
func TestClusterGoldenDeterminism(t *testing.T) {
	got := goldenClusterRuns(t, halsim.TelemetryConfig{}, 0)
	path := filepath.Join("testdata", "golden_cluster_runs.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	compareClusterGolden(t, got, "serial cluster battery")
}

// TestClusterGoldenParallel runs the battery with a handful of server
// groups per run (Shards 4 → ingress + 3 groups) against the SAME serial
// fixture.
func TestClusterGoldenParallel(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestClusterGoldenDeterminism")
	}
	compareClusterGolden(t, goldenClusterRuns(t, halsim.TelemetryConfig{}, 4), "parallel (shards=4) cluster battery")
}

// TestClusterGoldenWideParallel maximizes the partition — up to one
// server per logical process (65 shards covers the 64-server run; smaller
// fleets cap at servers+1 workers) — and must still match the serial
// fixture byte-for-byte.
func TestClusterGoldenWideParallel(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestClusterGoldenDeterminism")
	}
	compareClusterGolden(t, goldenClusterRuns(t, halsim.TelemetryConfig{}, 65), "wide parallel (shards=65) cluster battery")
}

// TestClusterGoldenTelemetryOn enables the timeline and registry across
// the serial battery: fleet telemetry is read-only, so the fixture holds.
func TestClusterGoldenTelemetryOn(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestClusterGoldenDeterminism")
	}
	compareClusterGolden(t, goldenClusterRuns(t, halsim.TelemetryConfig{Timeline: true}, 0), "telemetry-on cluster battery")
}

// TestClusterGoldenParallelProfiled turns every observer on — timeline,
// registry, flight recorder — over the parallel partition. The recorder
// watches per-server LP lanes without perturbing run-ahead planning; any
// divergence here means it did.
func TestClusterGoldenParallelProfiled(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is written by TestClusterGoldenDeterminism")
	}
	compareClusterGolden(t, goldenClusterRuns(t, halsim.TelemetryConfig{Timeline: true, Prof: true}, 4), "profiled parallel cluster battery")
}
