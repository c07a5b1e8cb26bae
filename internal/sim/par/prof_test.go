package par_test

import (
	"fmt"
	"math/rand"
	"testing"

	"halsim/internal/sim"
	"halsim/internal/sim/par"
	"halsim/internal/telemetry/prof"
)

// profNames names the worker nodes of the oracle harness for a recorder.
func profNames(workers int) []string {
	names := make([]string, workers)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	return names
}

// TestRecorderObservesRun attaches a flight recorder to the scripted oracle
// workload and checks the recording is coherent: every stored window has a
// valid binder and positive extent, aggregate counters cover the stored
// spans, and cross-LP sends show up as inject batches.
func TestRecorderObservesRun(t *testing.T) {
	const workers = 3
	s := buildScript(rand.New(rand.NewSource(77)), workers, 900)
	r := newRunner(s, workers)
	rec := prof.NewRecorder(profNames(workers))
	r.x.SetRecorder(rec)
	r.run(6000)

	var windows, injected uint64
	for i := 0; i < workers; i++ {
		l := rec.LaneAt(i)
		windows += l.WindowCount
		injected += l.InjectedMsgs
		if uint64(len(l.Windows))+l.WindowsTruncated > l.WindowCount {
			t.Fatalf("lane %d: stored %d + truncated %d spans exceed count %d",
				i, len(l.Windows), l.WindowsTruncated, l.WindowCount)
		}
		for _, w := range l.Windows {
			if w.End <= w.Start {
				t.Fatalf("lane %d: degenerate stored span %+v", i, w)
			}
			if w.Binder >= workers || (w.Binder < 0 && w.Binder != prof.BindEnd && w.Binder != prof.BindSelf) {
				t.Fatalf("lane %d: invalid binder %d", i, w.Binder)
			}
			if w.Binder == i {
				t.Fatalf("lane %d: peer-bound by itself (self-echo must use BindSelf)", i)
			}
		}
		if l.PacedTime > l.SpanTime {
			t.Fatalf("lane %d: paced %v exceeds span %v", i, l.PacedTime, l.SpanTime)
		}
	}
	if windows == 0 || rec.Rounds == 0 {
		t.Fatalf("empty recording: %d windows, %d rounds", windows, rec.Rounds)
	}
	if injected == 0 {
		t.Fatal("script sends cross-LP messages but no inject batches recorded")
	}
}

// TestRecorderLaneCountMismatchPanics pins the wiring contract: attaching a
// recorder sized for the wrong shard count is a programming error.
func TestRecorderLaneCountMismatchPanics(t *testing.T) {
	var w []*sim.Engine
	for n := 0; n < 2; n++ {
		e := sim.NewEngine()
		e.SetRank(n)
		w = append(w, e)
	}
	x := par.New(w, uniform(2, lookahead))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lane-count mismatch")
		}
	}()
	x.SetRecorder(prof.NewRecorder(profNames(3)))
}
