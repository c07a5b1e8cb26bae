package server_test

import (
	"fmt"
	"testing"

	"halsim/internal/cluster"
	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
)

// The flight recorder describes the parallel engine, which only fleets run,
// so these tests drive a small sharded fleet through the cluster runner
// next to the single server that accepts Prof and records nothing.

// profFleet is a 12-server HAL fleet: at Shards 4 the executor runs the
// ingress LP and three server-group LPs.
func profFleet(shards int, tel telemetry.Config) (server.Result, error) {
	return cluster.Run(
		server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 9, Shards: shards, Telemetry: tel,
			Cluster: &server.ClusterConfig{Servers: 12}},
		server.RunConfig{Duration: 2 * sim.Millisecond, RateGbps: 120})
}

// TestProfNonPerturbation: a run with Prof on must produce exactly the
// Result a Prof-off run does once the artifact pointers are blanked —
// attaching the recorder observes the parallel engine without steering it.
// It also pins the wiring contract: a single server and a serial fleet
// never build a recorder, a sharded fleet populates one.
func TestProfNonPerturbation(t *testing.T) {
	single := func(tel telemetry.Config) (server.Result, error) {
		return server.Run(server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 3, Telemetry: tel},
			server.RunConfig{Duration: 10 * sim.Millisecond, RateGbps: 60})
	}
	cases := []struct {
		name   string
		run    func(telemetry.Config) (server.Result, error)
		record bool
	}{
		{"single", single, false},
		{"fleet-serial", func(tel telemetry.Config) (server.Result, error) { return profFleet(0, tel) }, false},
		{"fleet-shards4", func(tel telemetry.Config) (server.Result, error) { return profFleet(4, tel) }, true},
	}
	for _, tc := range cases {
		off, err := tc.run(telemetry.Config{})
		if err != nil {
			t.Fatalf("%s off: %v", tc.name, err)
		}
		on, err := tc.run(telemetry.Config{Timeline: true, Prof: true})
		if err != nil {
			t.Fatalf("%s on: %v", tc.name, err)
		}
		if tc.record {
			rec := on.Prof
			if rec == nil {
				t.Fatalf("%s: profiled parallel run returned no recorder", tc.name)
			}
			var windows uint64
			for i := 0; i < rec.NumLanes(); i++ {
				windows += rec.LaneAt(i).WindowCount
			}
			if windows == 0 || rec.Rounds == 0 {
				t.Fatalf("%s: empty recording: %d windows, %d rounds", tc.name, windows, rec.Rounds)
			}
			if _, ok := rec.BindingLink(); !ok {
				t.Fatalf("%s: no window was ever peer-bound; stall attribution is dead", tc.name)
			}
		} else if on.Prof != nil {
			t.Fatalf("%s: serial run built a flight recorder", tc.name)
		}
		if off.Prof != nil {
			t.Fatalf("%s: Prof-off run built a flight recorder", tc.name)
		}
		on.Timeline, on.Trace, on.Metrics, on.Prof = nil, nil, nil, nil
		if got, want := fmt.Sprintf("%+v", on), fmt.Sprintf("%+v", off); got != want {
			t.Fatalf("%s: recorder perturbed the run\n on: %s\noff: %s", tc.name, got, want)
		}
	}
}

// TestProfDeterministicRepeat runs the same profiled sharded fleet twice
// and requires the recorder's deterministic surface — window spans,
// binders, inject counts, wheel counters — to match exactly;
// only the wall-clock fields may differ.
func TestProfDeterministicRepeat(t *testing.T) {
	runOnce := func() server.Result {
		res, err := profFleet(4, telemetry.Config{Prof: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Prof == nil {
			t.Fatal("no recorder")
		}
		return res
	}
	a, b := runOnce().Prof, runOnce().Prof
	for i := 0; i < a.NumLanes(); i++ {
		la, lb := a.LaneAt(i), b.LaneAt(i)
		la.LatchWaitNS, lb.LatchWaitNS = 0, 0
		if got, want := fmt.Sprintf("%+v", *la), fmt.Sprintf("%+v", *lb); got != want {
			t.Fatalf("lane %s diverged between repeats\n a: %s\n b: %s", la.Name(), got, want)
		}
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds diverged: %d vs %d", a.Rounds, b.Rounds)
	}
	if got, want := fmt.Sprintf("%+v", a.Wheels()), fmt.Sprintf("%+v", b.Wheels()); got != want {
		t.Fatalf("wheel counters diverged\n a: %s\n b: %s", got, want)
	}
}
