// Package prof is the parallel engine's flight recorder: an opt-in,
// nil-checked recording of where a conservative-parallel run's time goes.
// Per shard it keeps the window spans the run-ahead plans executed — each
// with the peer whose horizon capped it (stall attribution) — idle parks,
// InjectBatch sizes, and latch-wait wall time; per engine it snapshots the
// timing wheel's slow-path counters.
//
// Determinism contract (the same one the telemetry package keeps): the
// recorder only observes. Attaching it never changes a run's event order or
// Result, and every field except the explicitly wall-clock ones
// (LatchWaitNS, PlanWallNS, BarrierWallNS) is a pure function of the
// simulation's seed, configuration, and shard count — window spans, binder
// attributions, batch sizes, and wheel counters reproduce
// byte-identically across repeat runs. Wall-clock fields are therefore
// reported separately (console and bench summaries only) and never enter
// byte-compared artifacts — including the registry's text exposition.
package prof

import (
	"sort"

	"halsim/internal/sim"
)

// Binder sentinels for Window.Binder: values >= 0 name the peer LP whose
// published horizon capped the window.
const (
	// BindEnd marks a window capped by the round end itself (the next
	// control event or the run deadline) — no peer constrained the shard.
	BindEnd = -1
	// BindSelf marks a window capped by the shard's own shortest round
	// trip: its next event could echo back through a peer (the cycle term).
	BindSelf = -2
)

// maxWindowSpans caps a lane's stored spans. Aggregate counters
// (WindowCount, BoundBy*) stay exact past the cap; only the per-span detail
// truncates.
const maxWindowSpans = 1 << 15

// Window is one executed plan window of a shard: the engine ran [Start,
// End) and Binder says what bounded End.
type Window struct {
	Start, End sim.Time
	Binder     int
}

// Lane is one shard's recording. It is written only by the goroutine that
// owns the shard, so no locking is needed; readers wait for the run to
// finish.
type Lane struct {
	name string

	// Windows holds up to maxWindowSpans executed window spans;
	// WindowsTruncated counts spans dropped past the cap. The aggregate
	// counters below are exact regardless.
	Windows          []Window
	WindowsTruncated uint64

	// WindowCount counts every window, degenerate ones included. BoundBy
	// counts windows capped by each peer; BoundByEnd / BoundBySelf count
	// the sentinel binders.
	WindowCount uint64
	BoundBy     []uint64
	BoundByEnd  uint64
	BoundBySelf uint64

	// SpanTime is the simulated time covered by all windows; PacedTime is
	// the part covered by windows a peer (or the self-echo cycle) capped —
	// the simulated time this shard spent paced by lookahead rather than
	// running free to the round end.
	SpanTime  sim.Time
	PacedTime sim.Time

	// Parks counts the all-idle rounds: rounds in which no shard had an
	// event before the round end, so the coordinator parked every shard at
	// the end in place without running a plan window.
	Parks uint64

	// Inject-phase accounting: batches spliced, total messages, and the
	// largest single batch.
	Injects      uint64
	InjectedMsgs uint64
	MaxBatch     int

	// LatchWaitNS is wall-clock nanoseconds spent blocked on the window
	// latch — NONDETERMINISTIC, reported separately from everything above.
	LatchWaitNS int64
}

// Name returns the lane's LP name.
func (l *Lane) Name() string { return l.name }

// Window records one executed plan window ending for the given binder.
func (l *Lane) Window(start, end sim.Time, binder int) {
	l.WindowCount++
	switch {
	case binder >= 0 && binder < len(l.BoundBy):
		l.BoundBy[binder]++
	case binder == BindSelf:
		l.BoundBySelf++
	default:
		l.BoundByEnd++
	}
	if end <= start {
		return
	}
	l.SpanTime += end - start
	if binder >= 0 || binder == BindSelf {
		l.PacedTime += end - start
	}
	if len(l.Windows) >= maxWindowSpans {
		l.WindowsTruncated++
		return
	}
	l.Windows = append(l.Windows, Window{Start: start, End: end, Binder: binder})
}

// Park records one all-idle round (no plan windows executed).
func (l *Lane) Park() { l.Parks++ }

// Inject records one InjectBatch splice of n messages.
func (l *Lane) Inject(n int) {
	l.Injects++
	l.InjectedMsgs += uint64(n)
	if n > l.MaxBatch {
		l.MaxBatch = n
	}
}

// AddLatchWait accumulates wall-clock latch-wait time.
func (l *Lane) AddLatchWait(ns int64) { l.LatchWaitNS += ns }

// WheelLane is one engine's timing-wheel slow-path snapshot.
type WheelLane struct {
	Name  string
	Stats sim.WheelStats
}

// Recorder is the whole-run flight recorder: one Lane per worker LP,
// coordinator round counters, and end-of-run wheel snapshots. Build one
// with NewRecorder, attach it via the executor's SetRecorder, and read it
// after the run completes.
type Recorder struct {
	names []string
	lanes []Lane

	// Rounds counts coordinator rounds (one per control event or drain
	// chunk). Deterministic.
	Rounds uint64

	// Wall-clock coordinator totals — NONDETERMINISTIC, reported separately
	// from the deterministic counters: fan-out/fan-in time of the plan
	// phase and time spent in barrier work (deliver, late control, merged
	// instant).
	PlanWallNS    int64
	BarrierWallNS int64

	wheels []WheelLane
}

// NewRecorder builds a recorder for the named worker LPs (index order must
// match the executor's shard indices).
func NewRecorder(names []string) *Recorder {
	r := &Recorder{names: append([]string(nil), names...)}
	w := len(names)
	r.lanes = make([]Lane, w)
	for i := range r.lanes {
		r.lanes[i] = Lane{name: names[i], BoundBy: make([]uint64, w)}
	}
	return r
}

// NumLanes returns the worker LP count.
func (r *Recorder) NumLanes() int { return len(r.lanes) }

// LaneName returns the name of lane i.
func (r *Recorder) LaneName(i int) string { return r.names[i] }

// LaneAt returns lane i for recording or reading.
func (r *Recorder) LaneAt(i int) *Lane { return &r.lanes[i] }

// AddRound counts one coordinator round.
func (r *Recorder) AddRound() { r.Rounds++ }

// AddPlanWall accumulates wall-clock plan fan-out/fan-in time.
func (r *Recorder) AddPlanWall(ns int64) { r.PlanWallNS += ns }

// AddBarrierWall accumulates wall-clock barrier time.
func (r *Recorder) AddBarrierWall(ns int64) { r.BarrierWallNS += ns }

// AddWheel records one engine's timing-wheel snapshot at run end.
func (r *Recorder) AddWheel(name string, ws sim.WheelStats) {
	r.wheels = append(r.wheels, WheelLane{Name: name, Stats: ws})
}

// Wheels returns the recorded per-engine wheel snapshots.
func (r *Recorder) Wheels() []WheelLane { return r.wheels }

// StallEdge is one aggregated stall attribution: windows on the Dst lane
// were capped by Src's horizon plus the declared src→dst lookahead. Src ==
// Dst records the self-echo (cycle) binder.
type StallEdge struct {
	Src, Dst         int
	SrcName, DstName string
	Windows          uint64
	// Share is this edge's fraction of all peer-or-self-bound windows.
	Share float64
}

// TopStallEdges aggregates binder attributions across lanes, sorted by
// descending window count (ties by src, then dst — deterministic).
func (r *Recorder) TopStallEdges() []StallEdge {
	var out []StallEdge
	var total uint64
	for d := range r.lanes {
		for s, n := range r.lanes[d].BoundBy {
			if n > 0 {
				out = append(out, StallEdge{Src: s, Dst: d,
					SrcName: r.LaneName(s), DstName: r.LaneName(d), Windows: n})
				total += n
			}
		}
		if n := r.lanes[d].BoundBySelf; n > 0 {
			out = append(out, StallEdge{Src: d, Dst: d,
				SrcName: r.LaneName(d), DstName: r.LaneName(d), Windows: n})
			total += n
		}
	}
	for i := range out {
		if total > 0 {
			out[i].Share = float64(out[i].Windows) / float64(total)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Windows != out[j].Windows {
			return out[i].Windows > out[j].Windows
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// BindingLink returns the dominant stall edge — the link pair that capped
// the most windows — and false when no window was ever peer-bound.
func (r *Recorder) BindingLink() (StallEdge, bool) {
	edges := r.TopStallEdges()
	if len(edges) == 0 {
		return StallEdge{}, false
	}
	return edges[0], true
}

// PacedShare is the fraction of lane i's window-covered simulated time that
// was paced by a peer or the self-echo term (0 when no windows ran).
func (r *Recorder) PacedShare(i int) float64 {
	l := &r.lanes[i]
	if l.SpanTime <= 0 {
		return 0
	}
	return float64(l.PacedTime) / float64(l.SpanTime)
}

// LatchWaitTotalNS sums the wall-clock latch-wait time across lanes
// (nondeterministic).
func (r *Recorder) LatchWaitTotalNS() int64 {
	var t int64
	for i := range r.lanes {
		t += r.lanes[i].LatchWaitNS
	}
	return t
}
