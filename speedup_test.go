// Multi-core speedup gate for the conservative-parallel engine.
//
// The fleet golden battery proves the parallel engine is *correct*
// (byte-identical to serial); this test proves it is *worth having*: on a
// machine with real cores, sharding a fleet must not be slower than running
// it serially. It is opt-in (HAL_MULTICORE_GATE=1) because wall-clock
// assertions are meaningless on shared or single-core machines — CI's
// dedicated multi-core bench job sets the variable, everywhere else the
// test announces exactly why it did not run.
package halsim_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	"halsim"
)

// speedupRuns is the min-of-N noise floor: each engine is timed this many
// times and the fastest run counts, so a scheduler hiccup in one run
// cannot fail the gate.
const speedupRuns = 2

// TestClusterSpeedupMultiCore gates the fleet: a 64-server HAL cluster
// behind a shared ingress, timed serially and at Shards=5
// (one ingress LP plus four server-group LPs — four-way parallelism on
// four real cores). The fleet is the configuration the parallel engine
// exists for — one LP per server group with only the 2 µs ToR wire as
// coupling — so the parallel engine must not lose. Opt-in via
// HAL_MULTICORE_GATE=1, with a printed skip on starved machines.
func TestClusterSpeedupMultiCore(t *testing.T) {
	if os.Getenv("HAL_MULTICORE_GATE") != "1" {
		t.Skip("skipping multi-core cluster speedup gate: set HAL_MULTICORE_GATE=1 to enable (CI's bench-multicore job does)")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("skipping multi-core cluster speedup gate: need >= 4 CPUs for a meaningful measurement, have %d", n)
	}

	cfg := halsim.Config{
		Mode: halsim.HAL, Fn: halsim.NAT, Seed: 1,
		Cluster: &halsim.ClusterConfig{Servers: 64, Dispatch: "p2c"},
	}
	rc := halsim.RunConfig{Duration: 6 * halsim.Millisecond, RateGbps: 400}
	timeFleet := func(shards int) time.Duration {
		best := time.Duration(0)
		for i := 0; i < speedupRuns; i++ {
			c := cfg
			c.Shards = shards
			start := time.Now()
			res, err := halsim.Run(c, rc)
			el := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatal("no packets completed")
			}
			if i == 0 || el < best {
				best = el
			}
		}
		return best
	}

	serial := timeFleet(0)
	parallel := timeFleet(5)
	speedup := float64(serial) / float64(parallel)
	t.Logf("Fleet64 serial %v, shards=5 %v, speedup %.2fx (NumCPU=%d, GOMAXPROCS=%d, min of %d)",
		serial, parallel, speedup, runtime.NumCPU(), runtime.GOMAXPROCS(0), speedupRuns)
	if parallel > serial {
		t.Errorf("parallel engine slower than serial on the 64-server fleet on a %d-CPU machine: serial %v, shards=5 %v (%.2fx)",
			runtime.NumCPU(), serial, parallel, speedup)
	}

	// Fleet1024 sentinel: the datacenter-scale configuration this engine
	// was widened for — 1024 servers in 8 pods behind 4:1 oversubscribed
	// uplinks, partitioned into four server-group LPs plus the ingress.
	// Shorter window than Fleet64 (the fleet is 16x the work per
	// simulated second); sharded must still beat serial on real cores.
	cfg.Cluster = &halsim.ClusterConfig{Servers: 1024, Dispatch: "p2c", Pods: 8, Oversub: 4}
	rc = halsim.RunConfig{Duration: 2 * halsim.Millisecond, RateGbps: 2048}
	serial = timeFleet(0)
	parallel = timeFleet(5)
	speedup = float64(serial) / float64(parallel)
	t.Logf("Fleet1024 serial %v, shards=5 %v, speedup %.2fx (NumCPU=%d, GOMAXPROCS=%d, min of %d)",
		serial, parallel, speedup, runtime.NumCPU(), runtime.GOMAXPROCS(0), speedupRuns)
	if parallel > serial {
		t.Errorf("parallel engine slower than serial on the 1024-server fleet on a %d-CPU machine: serial %v, shards=5 %v (%.2fx)",
			runtime.NumCPU(), serial, parallel, speedup)
	}
}
