package par_test

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzCrossLPOrdering generalizes the scripted oracle: fuzzing picks the
// tree's seed, the worker count, the event budget, and the LP graph — the
// complete uniform-latency graph, or a random strongly connected ring with
// per-link latencies (see ringTopology), which exercises per-pair bounds
// and the self-echo term. The derived script — local follow-ups and
// lookahead-respecting worker→worker hops — must execute identically under
// the serial single-engine oracle and the parallel executor. Every event a
// node receives keeps that node's instant residue, so injected messages
// land on instants shared with the destination's own schedules and
// exercise the wheel's (at, seq) splice of foreign against local keys; a
// violation shows up as a reordered or time-shifted log entry.
func FuzzCrossLPOrdering(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(240), false)
	f.Add(int64(8), uint8(2), uint16(160), false)
	f.Add(int64(42), uint8(1), uint16(80), false)
	f.Add(int64(5), uint8(2), uint16(300), true)
	f.Add(int64(13), uint8(1), uint16(200), true)
	f.Fuzz(func(t *testing.T, seed int64, workers uint8, events uint16, ring bool) {
		w := int(workers)%3 + 1
		n := int(events)%400 + 20
		rng := rand.New(rand.NewSource(seed))
		topo, dist := uniform(w, lookahead), uniformDist(w, lookahead)
		if ring {
			topo, dist = ringTopology(rng, w)
		}
		s := buildScriptDist(rng, w, n, dist)
		label := fmt.Sprintf("seed %d workers %d events %d ring %v", seed, w, n, ring)
		matchOracle(t, label, s, topo, 600)
	})
}
