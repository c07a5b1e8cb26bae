// Package par runs a set of sim.Engine instances — one per logical process
// (LP) — under a conservative, lookahead-partitioned synchronization
// protocol, preserving the serial engine's bit-exact event order.
//
// # Model
//
// A simulation is partitioned into worker LPs (shards), each owning one
// engine on its own goroutine. Messages travel worker to worker; the
// caller owns the barriers: AdvanceTo(t) returns with every event at or
// before t executed and every engine quiescent, so the caller may read any
// LP's state (sample telemetry, say) before the next call. The LP graph is
// data, not code: a Topology declares the directed links messages may
// travel and the minimum latency of each, and the executor derives every
// synchronization bound from the all-pairs closure of those declared
// latencies. The graph must be strongly connected — every worker reaches
// every other over declared links — so an LP with work can influence
// every peer, and every round runs on all LPs or on none. Shards exchange
// timestamped messages: a send appends to a shard-local outbox and is
// spliced into the destination wheel (Engine.InjectBatch) under the
// sender-drawn seq key at the next delivery point, so a delivered event
// lands exactly where a serial run would have scheduled it.
//
// # Round protocol
//
// Advancement is organized in rounds. From the current barrier time B a
// round runs to the end E the caller names: AdvanceTo's until, or in a
// drain the earliest pending instant. If no worker has an event before E
// the coordinator parks every shard at E directly (idle-shard parking, no
// goroutine handoff); otherwise it issues ONE command per shard, and the
// shards execute the round as a self-synchronized run-ahead plan of
// consecutive windows:
//
//	loop:
//	  latch.arrive()            // all previous-window runs complete
//	  inject inbound messages   // InjectBatch into my own wheel
//	  publish my NextEventAt    // shared horizon array
//	  latch.arrive()            // every injection and horizon visible
//	  if every horizon >= E     // identical verdict on every shard
//	      park at E and return
//	  run RunBefore(min(E, min over src of horizon[src]+dist[src][me]))
//
// The per-window bound is the classic conservative one, evaluated from
// live horizons: a message from src is sent by an event at or after src's
// published horizon and arrives at least dist(src→me) later, where dist is
// the all-pairs shortest-path closure of declared link latencies (the
// triangle inequality makes multi-hop chains safe). Horizons are
// re-published every window, so window sizes adapt to the observed event
// horizon: an LP whose inbound sources are quiet runs straight to E in one
// window, while tightly coupled LPs pace each other at link latency. The
// two latch phases replace the per-window coordinator round-trip of the
// original protocol — the coordinator pays one fan-out/fan-in per ROUND
// (per caller barrier), not per window.
//
// A plan quiesces only on a verdict taken after an inject phase, so it
// leaves every outbox empty. The coordinator then runs the merged-instant
// step: events at exactly E execute across all engines in global (at, seq)
// key order — the same order a serial run derives from its single
// monotone counter — and each popped event's sends are delivered before
// the next pop. A drain is a sequence of such rounds, each ending at the
// earliest pending instant: every round is idle-parked, so the drain walks
// the remaining events on the coordinator in serial order, and its last
// barrier is the last event's instant, where a serial Run leaves its
// clock. Drains are short — the work in flight when traffic stops, and
// each cancelled ticker's last no-op tick.
//
// # Declared lookahead and the correctness fallback
//
// Conservative windows are only sound if every message truly respects its
// link's declared minimum latency. Rather than trusting the declaration,
// Send enforces it: a message whose delivery slack undercuts the declared
// dist(src→dst) fails fast at the send site, BEFORE any window bound
// computed from the false promise could let a destination run past the
// delivery instant.
// Widening bounds beyond the declared latencies from observed slack alone
// would require rollback on a mispredict — byte-identical artifacts leave
// no room for that — so adaptivity comes from live horizons over exact
// per-link declarations instead of speculation.
package par

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"halsim/internal/sim"
	"halsim/internal/telemetry/prof"
)

// Msg is one cross-LP event in flight; it is exactly the engine's batch-
// injection record, so outboxes deliver straight through Engine.InjectBatch.
type Msg = sim.Inject

// infTime marks a pair with no path in the distance matrix; once New
// accepts a graph, only a lone worker's self-distance keeps it.
// Far below MaxInt64 so horizon+dist sums cannot overflow.
const infTime = sim.Time(math.MaxInt64 / 4)

// noEvent is the published horizon of an engine with an empty queue.
const noEvent = sim.Time(math.MaxInt64)

// maxWorkers bounds the worker count: every worker engine needs a distinct
// seq-key rank, and the cluster runner numbers its LPs from rank 1 under
// sim's eight-bit rank ceiling.
const maxWorkers = 255

// Link is one directed edge of the LP graph: messages src→dst arrive no
// earlier than Latency after the instant they are sent.
type Link struct {
	Src, Dst int
	Latency  sim.Time
}

// Topology declares the LP graph a partitioned simulation runs on: how
// many worker LPs there are and which directed links cross-LP messages may
// travel, each with a lower bound on its latency. The executor derives all
// window bounds from the all-pairs shortest-path closure of the links,
// which must connect every ordered pair of workers.
type Topology struct {
	Workers int
	Links   []Link
}

// distances validates the topology and returns the all-pairs shortest-path
// closure of the worker→worker link latencies, panicking unless the graph
// is strongly connected. The closure (rather than the raw links) is what
// makes per-window bounds safe against multi-hop chains:
// dist[a][c] <= dist[a][b]+dist[b][c] for every relay b.
func (t Topology) distances() [][]sim.Time {
	if t.Workers < 1 || t.Workers > maxWorkers {
		panic(fmt.Sprintf("par: worker count %d outside 1..%d", t.Workers, maxWorkers))
	}
	dist := make([][]sim.Time, t.Workers)
	for i := range dist {
		dist[i] = make([]sim.Time, t.Workers)
		for j := range dist[i] {
			dist[i][j] = infTime
		}
	}
	for _, l := range t.Links {
		if l.Src < 0 || l.Src >= t.Workers {
			panic(fmt.Sprintf("par: link source %d out of range", l.Src))
		}
		if l.Dst < 0 || l.Dst >= t.Workers {
			panic(fmt.Sprintf("par: link destination %d out of range", l.Dst))
		}
		if l.Latency <= 0 || l.Latency > sim.SeqMaxTime {
			panic(fmt.Sprintf("par: link %d→%d latency %v outside (0, %v]", l.Src, l.Dst, l.Latency, sim.SeqMaxTime))
		}
		if l.Src == l.Dst {
			continue
		}
		if l.Latency < dist[l.Src][l.Dst] {
			dist[l.Src][l.Dst] = l.Latency
		}
	}
	for k := 0; k < t.Workers; k++ {
		for i := 0; i < t.Workers; i++ {
			if dist[i][k] == infTime {
				continue
			}
			for j := 0; j < t.Workers; j++ {
				if dist[k][j] == infTime {
					continue
				}
				if via := dist[i][k] + dist[k][j]; via < dist[i][j] {
					dist[i][j] = via
				}
			}
		}
	}
	for i := range dist {
		for j, d := range dist[i] {
			if i != j && d == infTime {
				panic(fmt.Sprintf("par: LP graph is not strongly connected: no path %d→%d", i, j))
			}
		}
	}
	return dist
}

// latch is the reusable window barrier the shards synchronize on inside a
// round: a generation-counted rendezvous that the coordinator re-arms per
// round and a panicking shard can permanently leave.
type latch struct {
	mu   sync.Mutex
	cond sync.Cond
	n    int // parties still in the group
	cnt  int // arrived at the current phase
	gen  uint64
}

func newLatch() *latch {
	l := &latch{}
	l.cond.L = &l.mu
	return l
}

// reset re-arms the latch for n parties. Coordinator-only, between rounds.
func (l *latch) reset(n int) {
	l.mu.Lock()
	l.n, l.cnt = n, 0
	l.mu.Unlock()
}

// open releases the current phase. Caller holds mu.
func (l *latch) open() {
	l.cnt = 0
	l.gen++
	l.cond.Broadcast()
}

// arrive blocks until every party in the group has arrived at this phase.
func (l *latch) arrive() {
	l.mu.Lock()
	g := l.gen
	l.cnt++
	if l.cnt >= l.n {
		l.open()
	} else {
		for l.gen == g {
			l.cond.Wait()
		}
	}
	l.mu.Unlock()
}

// leave permanently removes one party from the group, releasing the phase
// if the leaver was the only arrival still missing.
func (l *latch) leave() {
	l.mu.Lock()
	l.n--
	if l.n > 0 && l.cnt >= l.n {
		l.open()
	}
	l.mu.Unlock()
}

// shard is one worker LP: an engine, its per-destination outboxes, and the
// command/result channel pair of its goroutine.
type shard struct {
	eng *sim.Engine
	idx int
	// out is indexed by destination shard. Only the shard's goroutine
	// appends while it runs a window; the DESTINATION shard drains its slot
	// in its inject phase (the latch orders append and drain), and the
	// coordinator drains the sends of merged-instant events at round
	// barriers.
	out []([]Msg)
	cmd chan struct{}
	res chan any // recovered panic value, nil on success
}

// Exec coordinates the shards.
type Exec struct {
	shards []*shard
	// dist is the all-pairs closure of declared link latencies; cycle[i]
	// is LP i's shortest round trip through any peer (the earliest one of
	// its own sends can echo back — infTime for a lone worker).
	dist  [][]sim.Time
	cycle []sim.Time

	b       sim.Time // current barrier time
	running bool

	// Round/plan state. planEnd is written by the coordinator before
	// fan-out; nextAt slot i is written only by shard i between latch
	// phases (the latch and the cmd/res channels order every access).
	planEnd  sim.Time
	nextAt   []sim.Time
	latch    *latch
	poisoned atomic.Bool

	// rec, when non-nil, is the attached flight recorder. Every hook site
	// nil-checks it, so a run without one pays nothing. Lane i is written
	// only by the goroutine owning shard i (or the coordinator while that
	// shard is parked).
	rec *prof.Recorder
}

// outboxKeepCap bounds the backing-array capacity an outbox retains after
// draining. Drained entries are always zeroed (InjectBatch zeroes in
// place), so a retained slab pins no Arg payloads — only its own bytes —
// and freeing it just to reallocate next round is pure churn. The cap is
// therefore set high enough that fleet-scale rounds (a 1024-server ingress
// hands off tens of thousands of packets per round) reuse their slabs
// steady-state; only a pathological one-off burst beyond it is released to
// the GC.
const outboxKeepCap = 1 << 20

// New builds an executor over the given worker engines and the declared
// LP graph. len(workers) must equal topo.Workers, the graph must be
// strongly connected, and every cross-LP send must respect its pair's
// declared latency.
func New(workers []*sim.Engine, topo Topology) *Exec {
	if len(workers) != topo.Workers {
		panic(fmt.Sprintf("par: %d worker engines for a %d-worker topology", len(workers), topo.Workers))
	}
	dist := topo.distances()
	x := &Exec{dist: dist, latch: newLatch()}
	for i := range workers {
		x.shards = append(x.shards, &shard{
			eng: workers[i],
			idx: i,
			out: make([][]Msg, len(workers)),
			cmd: make(chan struct{}),
			res: make(chan any),
		})
	}
	x.cycle = make([]sim.Time, len(workers))
	for i := range workers {
		x.cycle[i] = infTime
		for j := range workers {
			if j == i {
				continue
			}
			if rt := dist[i][j] + dist[j][i]; rt < x.cycle[i] {
				x.cycle[i] = rt
			}
		}
	}
	x.nextAt = make([]sim.Time, len(workers))
	return x
}

// SetRecorder attaches a flight recorder (nil detaches). The recorder must
// have one lane per worker; call before Start.
func (x *Exec) SetRecorder(r *prof.Recorder) {
	if r != nil && r.NumLanes() != len(x.shards) {
		panic(fmt.Sprintf("par: recorder has %d lanes for %d shards", r.NumLanes(), len(x.shards)))
	}
	x.rec = r
}

// Start launches the shard goroutines. Each executes one run-ahead plan
// per command until Shutdown closes its channel.
func (x *Exec) Start() {
	if x.running {
		return
	}
	x.running = true
	for _, sh := range x.shards {
		go func(sh *shard) {
			for range sh.cmd {
				sh.res <- x.runPlanGuarded(sh)
			}
		}(sh)
	}
}

// Shutdown stops the shard goroutines. The executor is not reusable after.
func (x *Exec) Shutdown() {
	if !x.running {
		return
	}
	x.running = false
	for _, sh := range x.shards {
		close(sh.cmd)
	}
}

// Send queues a message from shard src to shard dst. It must be called
// from an event of src: on the sending shard's goroutine during a window,
// on the coordinator's in a barrier's merged-instant step. Sends are checked against the
// declared topology here — at the send site, before any window bound
// computed from the declaration could be trusted wrongly.
func (x *Exec) Send(src, dst int, at sim.Time, seq uint64, call sim.Call, arg any, n int64) {
	sh := x.shards[src]
	if slack, d := at-sh.eng.Now(), x.dist[src][dst]; slack < d {
		panic(fmt.Sprintf("par: message %d→%d due at %v undercuts the declared %v link lookahead (slack %v)",
			src, dst, at, d, slack))
	}
	sh.out[dst] = append(sh.out[dst], Msg{At: at, Seq: seq, Call: call, Arg: arg, N: n})
}

// Now reports the current barrier time.
func (x *Exec) Now() sim.Time { return x.b }

// AdvanceTo runs the simulation through until inclusive in one round: the
// run-ahead plan covers [B, until) and the merged-instant step executes
// events at exactly until, matching the serial engine's inclusive
// RunUntil. On return every engine is parked at until and quiescent.
func (x *Exec) AdvanceTo(until sim.Time) {
	if x.b < until {
		x.round(until)
	}
}

// DrainAll runs every remaining event — the parallel form of Engine.Run
// after the caller stops offering work. Each round ends at the earliest
// pending instant, however far away, so idle gaps are jumped and the last
// barrier is the last event's instant, as a serial Run leaves its clock.
func (x *Exec) DrainAll() {
	for {
		x.refreshNext()
		m := noEvent
		for _, at := range x.nextAt {
			m = min(m, at)
		}
		if m == noEvent {
			return
		}
		x.round(m)
	}
}

// refreshNext re-polls every worker engine into the cached horizon array.
// Called at round boundaries, where merged-instant events may have
// scheduled into worker wheels; inside rounds the shards publish their own
// slots.
func (x *Exec) refreshNext() {
	for i, sh := range x.shards {
		if at, ok := sh.eng.NextEventAt(); ok {
			x.nextAt[i] = at
		} else {
			x.nextAt[i] = noEvent
		}
	}
}

// round advances the whole simulation to barrier time end: the run-ahead
// plan and the merged-instant step at end itself. The graph is strongly
// connected, so one LP with an event before end can influence every
// other: the plan runs on all shards or, when none has work before end,
// on none.
func (x *Exec) round(end sim.Time) {
	x.refreshNext()
	active := false
	for _, at := range x.nextAt {
		if at < end {
			active = true
			break
		}
	}
	if !active {
		// Idle-shard parking: nothing can happen before end, so advance
		// every clock in place without a goroutine handoff.
		for i, sh := range x.shards {
			sh.eng.RunBefore(end)
			if x.rec != nil {
				x.rec.LaneAt(i).Park()
			}
		}
	} else {
		var t0 time.Time
		if x.rec != nil {
			t0 = time.Now()
		}
		x.planEnd = end
		x.latch.reset(len(x.shards))
		x.poisoned.Store(false)
		for _, sh := range x.shards {
			sh.cmd <- struct{}{}
		}
		var panicked any
		for _, sh := range x.shards {
			if r := <-sh.res; r != nil && panicked == nil {
				panicked = r
			}
		}
		if panicked != nil {
			panic(panicked)
		}
		if x.rec != nil {
			x.rec.AddPlanWall(time.Since(t0).Nanoseconds())
		}
	}

	// A plan quiesces right after an inject phase, so no outbox holds a
	// straggler here: the barrier is the merged-instant step alone.
	var tb time.Time
	if x.rec != nil {
		tb = time.Now()
	}
	x.mergedInstant(end)
	if x.rec != nil {
		x.rec.AddBarrierWall(time.Since(tb).Nanoseconds())
		x.rec.AddRound()
	}
	x.b = end
}

// runPlanGuarded executes one plan on a shard goroutine, converting a
// panic into a value so a shard failure surfaces on the coordinator
// instead of killing the process. A panicking shard poisons the plan and
// leaves the latch group so its peers unwind instead of deadlocking.
func (x *Exec) runPlanGuarded(sh *shard) (recovered any) {
	defer func() {
		if r := recover(); r != nil {
			recovered = r
			x.poisoned.Store(true)
			x.latch.leave()
		}
	}()
	x.runPlan(sh)
	return nil
}

// runPlan is the shard side of a round: consecutive conservative
// windows self-synchronized over the latch, with live horizon publication
// and direct inbound delivery, until everything before planEnd is done.
func (x *Exec) runPlan(sh *shard) {
	me := sh.idx
	end := x.planEnd
	var lane *prof.Lane
	if x.rec != nil {
		lane = x.rec.LaneAt(me)
	}
	for {
		x.arrive(lane) // every previous-window run complete
		if x.poisoned.Load() {
			return
		}
		x.injectInbound(sh, lane)
		if at, ok := sh.eng.NextEventAt(); ok {
			x.nextAt[me] = at
		} else {
			x.nextAt[me] = noEvent
		}
		x.arrive(lane) // every injection and horizon visible
		if x.poisoned.Load() {
			return
		}
		quiet, bound, binder := x.planStep(me, end)
		if quiet {
			if lane != nil {
				lane.Window(sh.eng.Now(), end, prof.BindEnd)
			}
			sh.eng.RunBefore(end)
			return
		}
		if lane != nil {
			lane.Window(sh.eng.Now(), bound, binder)
		}
		sh.eng.RunBefore(bound)
	}
}

// arrive is latch.arrive with optional wall-clock latch-wait accounting.
func (x *Exec) arrive(lane *prof.Lane) {
	if lane == nil {
		x.latch.arrive()
		return
	}
	t0 := time.Now()
	x.latch.arrive()
	lane.AddLatchWait(time.Since(t0).Nanoseconds())
}

// planStep evaluates the shared horizon array for shard me: whether the
// whole plan has quiesced, my next window bound, and the binder — the peer
// whose horizon produced that bound (prof.BindSelf for the self-echo term,
// prof.BindEnd when the round end itself bounds the window). Every shard
// reads the same latch-ordered array, so the quiesce verdicts agree.
func (x *Exec) planStep(me int, end sim.Time) (quiet bool, bound sim.Time, binder int) {
	// Window bound: a message from src is sent at or after src's horizon
	// and arrives at least dist(src→me) later; quiet sources bound nothing
	// before end. Transitive chains through peers are covered by the
	// triangle inequality of the all-pairs closure; a chain seeded by MY
	// OWN next event can echo back no earlier than one full round trip,
	// hence the self term over cycle[me].
	quiet = true
	bound, binder = end, prof.BindEnd
	for s := range x.shards {
		if x.nextAt[s] >= end {
			continue
		}
		quiet = false
		if s == me {
			continue
		}
		if b := x.nextAt[s] + x.dist[s][me]; b < bound {
			bound, binder = b, s
		}
	}
	if quiet {
		return true, end, prof.BindEnd
	}
	if x.nextAt[me] < end && x.cycle[me] != infTime {
		if b := x.nextAt[me] + x.cycle[me]; b < bound {
			bound, binder = b, prof.BindSelf
		}
	}
	return false, bound, binder
}

// injectInbound drains every peer outbox destined to shard me into my own
// wheel — one InjectBatch per non-empty source — and caps the retained
// backing capacity so bursty windows do not pin slabs for the whole run.
func (x *Exec) injectInbound(sh *shard, lane *prof.Lane) {
	me := sh.idx
	for _, src := range x.shards {
		if src == sh {
			continue
		}
		msgs := src.out[me]
		if len(msgs) == 0 {
			continue
		}
		sh.eng.InjectBatch(msgs)
		if lane != nil {
			lane.Inject(len(msgs))
		}
		if cap(msgs) > outboxKeepCap {
			src.out[me] = nil
		} else {
			src.out[me] = msgs[:0]
		}
	}
}

// deliver drains sh's outboxes into their destination wheels at a
// coordinator barrier.
func (x *Exec) deliver(sh *shard) {
	for dst, msgs := range sh.out {
		if len(msgs) == 0 {
			continue
		}
		x.shards[dst].eng.InjectBatch(msgs)
		if cap(msgs) > outboxKeepCap {
			sh.out[dst] = nil
		} else {
			sh.out[dst] = msgs[:0]
		}
	}
}

// mergedInstant single-steps engines while any head event sits at exactly
// t, always picking the globally smallest seq key: the serial interleaving
// of same-instant events across LPs. Each popped event's sends arrive
// strictly after t (every link latency is positive), so they are
// delivered right away from the popping shard alone.
func (x *Exec) mergedInstant(t sim.Time) {
	for {
		var best *shard
		var bestSeq uint64
		for _, sh := range x.shards {
			if at, seq, ok := sh.eng.HeadKey(); ok && at == t && (best == nil || seq < bestSeq) {
				best, bestSeq = sh, seq
			}
		}
		if best == nil {
			return
		}
		best.eng.PopRun()
		x.deliver(best)
	}
}
