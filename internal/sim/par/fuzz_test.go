package par_test

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzCrossLPOrdering generalizes the scripted oracle: fuzzing picks the
// tree's seed, the worker count, and the event budget, and the derived
// script — local follow-ups and lookahead-respecting worker→worker hops —
// must execute identically under the serial single-engine oracle and the
// parallel executor. Every event a node receives keeps that node's instant
// residue, so injected messages land on instants shared with the
// destination's own schedules and exercise the wheel's (at, seq) splice of
// foreign against local keys; a violation shows up as a reordered or
// time-shifted log entry.
func FuzzCrossLPOrdering(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(240))
	f.Add(int64(8), uint8(2), uint16(160))
	f.Add(int64(42), uint8(1), uint16(80))
	f.Fuzz(func(t *testing.T, seed int64, workers uint8, events uint16) {
		w := int(workers)%3 + 1
		n := int(events)%400 + 20
		s := buildScript(rand.New(rand.NewSource(seed)), w, n)
		ser := newRunner(s, w, false)
		ser.run(600)
		pp := newRunner(s, w, true)
		pp.run(600)
		for node := range ser.logs {
			if !reflect.DeepEqual(ser.logs[node], pp.logs[node]) {
				t.Fatalf("seed %d workers %d events %d node %d:\nserial   %v\nparallel %v",
					seed, w, n, node, ser.logs[node], pp.logs[node])
			}
		}
	})
}
