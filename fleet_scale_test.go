package halsim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"halsim"
)

// fleetLine formats the determinism-relevant numeric fields of a fleet
// Result (everything except the engine label and wall-clock metadata).
func fleetLine(res halsim.Result) string {
	return fmt.Sprintf("sent=%d completed=%d sentAll=%d completedAll=%d droppedAll=%d inflight=%d avg=%v max=%v p50=%v p99=%v p999=%v power=%v eff=%v",
		res.Sent, res.Completed, res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd,
		res.AvgGbps, res.MaxGbps, res.P50us, res.P99us, res.P999us, res.AvgPowerW, res.EffGbpsPerW)
}

// TestClusterShardClamping pins the worker-cap boundary of the fleet
// partition: a shard request the fleet can't host is clamped — to one
// group per server on small fleets, to the executor's 254-group ceiling
// on large ones — and the clamped run must still be byte-identical to the
// serial engine. The 300-server case lands exactly ON the ceiling (255
// worker LPs, the widened executor's maximum); the 254-server case
// partitions at exactly groups == maxGroups with no surplus.
func TestClusterShardClamping(t *testing.T) {
	cases := []struct {
		name    string
		servers int
		shards  int
		pods    int
	}{
		// Surplus shards on a small fleet: groups clamp to servers.
		{"fleet6-shards50", 6, 50, 0},
		// One past every ceiling: 600 shards ask for 599 groups, the
		// executor caps at 254 (= 255 workers with the ingress).
		{"fleet300-shards600", 300, 600, 3},
		// Exactly at the cap: 255 shards = 254 groups, no clamping.
		{"fleet254-shards255", 254, 255, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) string {
				res, err := halsim.Run(
					halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 11, Shards: shards,
						Cluster: &halsim.ClusterConfig{Servers: tc.servers, Pods: tc.pods, Oversub: 4}},
					halsim.RunConfig{Duration: halsim.Millisecond, RateGbps: float64(tc.servers)})
				if err != nil {
					t.Fatal(err)
				}
				if shards > 1 && res.Engine != "parallel" {
					t.Fatalf("shards=%d fell back to engine %q", shards, res.Engine)
				}
				return fleetLine(res)
			}
			serial, clamped := run(0), run(tc.shards)
			if serial != clamped {
				t.Fatalf("clamped run diverged from serial:\nserial  %s\nclamped %s", serial, clamped)
			}
		})
	}
}

// TestCXLFleetShardInvariant: a stateful Count fleet over CXL gives every
// server its own coherence directory, so the sharded engine, whose groups
// run on separate goroutines, reproduces the serial Result byte for byte.
func TestCXLFleetShardInvariant(t *testing.T) {
	run := func(shards int) []byte {
		res, err := halsim.Run(
			halsim.Config{Mode: halsim.HAL, Fn: halsim.Count, Fabric: halsim.CXL, Seed: 3, Shards: shards,
				Cluster: &halsim.ClusterConfig{Servers: 8}},
			halsim.RunConfig{Duration: 2 * halsim.Millisecond, RateGbps: 400})
		if err != nil {
			t.Fatal(err)
		}
		if res.CoherenceRemote == 0 {
			t.Fatalf("shards=%d: a CXL Count fleet charged no coherence transfers", shards)
		}
		res.Engine = ""
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial, sharded := run(0), run(3)
	if !bytes.Equal(serial, sharded) {
		t.Fatalf("sharded CXL fleet diverged from serial:\nserial  %s\nsharded %s", serial, sharded)
	}
}

// TestFleetFootprintPerServer guards what a fleet server costs to build:
// rings, histograms and function state are sized by the traffic a server
// carries, not by its configured capacity. A 256-server podded fleet run
// for one simulated microsecond is almost all build, so its allocation
// per server is the per-server footprint. TotalAlloc counts every byte
// allocated, garbage included, so the figure does not depend on GC timing.
func TestFleetFootprintPerServer(t *testing.T) {
	const servers = 256
	const maxPerServer = 48 << 10
	run := func() {
		_, err := halsim.Run(
			halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 1,
				Cluster: &halsim.ClusterConfig{Servers: servers, Dispatch: "p2c", Pods: 8, Oversub: 4}},
			halsim.RunConfig{Duration: halsim.Microsecond, RateGbps: 6.25 * servers})
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // first use fills package-level caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perServer := (after.TotalAlloc - before.TotalAlloc) / servers
	t.Logf("%d B allocated per server", perServer)
	if perServer > maxPerServer {
		t.Fatalf("a fleet server allocates %d B to build, want <= %d", perServer, maxPerServer)
	}
}

// TestFleetFootprintPerServerServing is TestFleetFootprintPerServer's
// serving twin: the same fleet at the same offered load runs for 250 µs,
// long enough for every server to serve, so state built at first service
// — random streams, grown rings, banked buffers — counts too. With 16-byte
// keyed streams a server allocates ~12 KB here; a 4.9 KB random register
// per serving station took it to ~19 KB.
func TestFleetFootprintPerServerServing(t *testing.T) {
	const servers = 256
	const maxPerServer = 16 << 10
	run := func() {
		_, err := halsim.Run(
			halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 1,
				Cluster: &halsim.ClusterConfig{Servers: servers, Dispatch: "p2c", Pods: 8, Oversub: 4}},
			halsim.RunConfig{Duration: 250 * halsim.Microsecond, RateGbps: 6.25 * servers})
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // first use fills package-level caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perServer := (after.TotalAlloc - before.TotalAlloc) / servers
	t.Logf("%d B allocated per server", perServer)
	if perServer > maxPerServer {
		t.Fatalf("a serving fleet server allocates %d B, want <= %d", perServer, maxPerServer)
	}
}
