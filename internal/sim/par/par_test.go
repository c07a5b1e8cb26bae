package par_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"halsim/internal/sim"
	"halsim/internal/sim/par"
	"halsim/internal/telemetry/prof"
)

// The tests replay one scripted event tree through a serial single-engine
// oracle and through the parallel executor, then compare per-node logs.
// Nodes are residue-separated: node j's local events fire at instants ≡ j
// (mod stride) and cross-node latencies preserve the destination residue,
// so no two worker nodes ever share an instant and the comparison is exact
// (cross-LP same-instant interleaving is covered by its own tests below).

const (
	stride    = 4
	lookahead = sim.Time(40)
)

// noPath marks an unlinked pair in a test-side distance matrix.
const noPath = sim.Time(1) << 60

// action is one scripted consequence of an event firing: schedule a local
// follow-up or send to another node.
type action struct {
	dst   int // node index
	delay sim.Time
	child int64 // id of the spawned event's script entry
}

type script struct {
	acts  map[int64][]action
	roots []action
}

type entry struct {
	At   sim.Time
	Node int
	ID   int64
}

// uniform is the complete LP graph over n workers with one shared minimum
// latency on every link.
func uniform(n int, lookahead sim.Time) par.Topology {
	t := par.Topology{Workers: n}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				t.Links = append(t.Links, par.Link{Src: s, Dst: d, Latency: lookahead})
			}
		}
	}
	return t
}

// uniformDist is the distance matrix of the complete graph with one shared
// latency — what uniform declares.
func uniformDist(workers int, la sim.Time) [][]sim.Time {
	m := make([][]sim.Time, workers)
	for i := range m {
		m[i] = make([]sim.Time, workers)
		for j := range m[i] {
			if i != j {
				m[i][j] = la
			}
		}
	}
	return m
}

// blankDist is a test-side distance matrix with no links declared yet.
func blankDist(workers int) [][]sim.Time {
	m := make([][]sim.Time, workers)
	for i := range m {
		m[i] = make([]sim.Time, workers)
		for j := range m[i] {
			if i != j {
				m[i][j] = noPath
			}
		}
	}
	return m
}

// ringTopology draws a random strongly connected LP graph: a ring i→i+1
// (so every worker reaches every other) under random extra links, each
// with its own latency, a multiple of stride. It returns the topology and
// the closure of its links.
func ringTopology(rng *rand.Rand, w int) (par.Topology, [][]sim.Time) {
	topo, dist := par.Topology{Workers: w}, blankDist(w)
	link := func(i, j int) {
		l := sim.Time(stride) * sim.Time(5+rng.Intn(15))
		topo.Links = append(topo.Links, par.Link{Src: i, Dst: j, Latency: l})
		dist[i][j] = min(dist[i][j], l)
	}
	for i := 0; i < w; i++ {
		if w > 1 {
			link(i, (i+1)%w)
		}
		for j := 0; j < w; j++ {
			if i != j && rng.Intn(10) < 7 {
				link(i, j)
			}
		}
	}
	closure(dist)
	return topo, dist
}

// starTopology draws the cluster runner's shape over w workers: worker 0
// is a hub (shared ingress), workers 1..w-1 are leaves (server groups),
// and the only links are hub<->leaf with random, possibly asymmetric
// latencies that are multiples of k. It returns the topology and the
// closure of its links.
func starTopology(rng *rand.Rand, w, k int) (par.Topology, [][]sim.Time) {
	topo, dist := par.Topology{Workers: w}, blankDist(w)
	for l := 1; l < w; l++ {
		down := sim.Time(k * (3 + rng.Intn(12)))
		up := sim.Time(k * (3 + rng.Intn(12)))
		topo.Links = append(topo.Links,
			par.Link{Src: 0, Dst: l, Latency: down},
			par.Link{Src: l, Dst: 0, Latency: up})
		dist[0][l] = down
		dist[l][0] = up
	}
	closure(dist)
	return topo, dist
}

// closure turns a direct-link latency matrix into its all-pairs
// shortest-path form in place: the test-side mirror of the executor's own
// derivation, so scripted send delays respect exactly the bounds the
// executor will enforce.
func closure(m [][]sim.Time) {
	n := len(m)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if m[i][k] >= noPath {
				continue
			}
			for j := 0; j < n; j++ {
				if m[k][j] >= noPath {
					continue
				}
				if via := m[i][k] + m[k][j]; via < m[i][j] {
					m[i][j] = via
				}
			}
		}
	}
}

// buildScript grows a deterministic random event tree over n worker nodes,
// over the complete uniform-lookahead graph.
func buildScript(rng *rand.Rand, workers, events int) *script {
	return buildScriptDist(rng, workers, events, uniformDist(workers, lookahead))
}

// buildScriptDist is buildScript over an arbitrary distance matrix (the
// closure of some topology's links): worker→worker hops only target nodes
// the source has a path to, with delays at or above the path latency,
// rounded to preserve the destination's residue. Latencies must be stride
// multiples for the residue scheme to hold.
func buildScriptDist(rng *rand.Rand, workers, events int, dist [][]sim.Time) *script {
	return buildScriptStride(rng, workers, events, dist, stride)
}

// buildScriptStride is buildScriptDist with the residue modulus as a
// parameter: topologies with more than `stride` nodes need k >= workers
// for node residues to stay distinct (and link latencies must then be
// multiples of k).
func buildScriptStride(rng *rand.Rand, workers, events int, dist [][]sim.Time, stride int) *script {
	reach := make([][]int, workers)
	for i := 0; i < workers; i++ {
		for j := 0; j < workers; j++ {
			if i != j && dist[i][j] < noPath {
				reach[i] = append(reach[i], j)
			}
		}
	}
	s := &script{acts: map[int64][]action{}}
	id := int64(0)
	var grow func(node int, depth int) int64
	grow = func(node int, depth int) int64 {
		id++
		me := id
		if depth >= 4 {
			return me
		}
		kids := rng.Intn(3)
		for k := 0; k < kids && id < int64(events); k++ {
			var a action
			switch r := rng.Intn(4); {
			case r >= 2 && len(reach[node]) > 0: // worker→worker hop
				a.dst = reach[node][rng.Intn(len(reach[node]))]
				diff := (a.dst - node) % stride
				if diff < 0 {
					diff += stride
				}
				a.delay = dist[node][a.dst] + sim.Time(diff) + sim.Time(rng.Intn(8)*stride)
			default: // local follow-up, residue-preserving delay
				a.dst = node
				a.delay = sim.Time((rng.Intn(30) + 1) * stride)
			}
			a.child = grow(a.dst, depth+1)
			s.acts[me] = append(s.acts[me], a)
		}
		return me
	}
	for n := 0; n < workers; n++ {
		for i := 0; i < events/workers; i++ {
			root := grow(n, 0)
			// Root instants carry the node's residue, offset past zero:
			// the seeding pass stamps every root with schedAt 0, so no
			// event may FIRE at instant 0 or its sends would collide with
			// the roots on (at, schedAt) and resolve by rank — the one
			// residual ambiguity of composite keys, deliberately excluded
			// from this exact-match oracle.
			at := sim.Time((rng.Intn(200)+1)*stride) + sim.Time(n)
			s.roots = append(s.roots, action{dst: n, delay: at, child: root})
		}
	}
	return s
}

// runner executes a script either serially (one engine, topo == nil) or
// under the parallel executor partitioned by the given topology.
type runner struct {
	s       *script
	engines []*sim.Engine // per node; all aliases of one engine when serial
	x       *par.Exec
	logs    [][]entry
	calls   []sim.Call
	// marks holds, per caller barrier, the clock and every node's log
	// length there: the quiescent state a caller would sample.
	marks [][]int
}

// newRunner runs s under the executor over the complete uniform-lookahead
// graph.
func newRunner(s *script, workers int) *runner {
	t := uniform(workers, lookahead)
	return newRunnerTopo(s, workers, &t)
}

func newRunnerTopo(s *script, workers int, topo *par.Topology) *runner {
	r := &runner{s: s, logs: make([][]entry, workers)}
	if topo == nil {
		e := sim.NewEngine()
		for n := 0; n < workers; n++ {
			r.engines = append(r.engines, e)
		}
	} else {
		for n := 0; n < workers; n++ {
			e := sim.NewEngine()
			e.SetRank(n)
			r.engines = append(r.engines, e)
		}
		r.x = par.New(r.engines, *topo)
	}
	for n := 0; n < workers; n++ {
		node := n
		r.calls = append(r.calls, func(_ any, id int64) { r.fire(node, id) })
	}
	// Seed the roots from a virtual scheduling pass at time zero, in the
	// deterministic order the script recorded them.
	for _, a := range s.roots {
		r.dispatch(a.dst, a.dst, a.delay, a.child)
	}
	return r
}

func (r *runner) dispatch(src, dst int, delay sim.Time, child int64) {
	se := r.engines[src]
	at := se.Now() + delay
	if r.x == nil || src == dst {
		r.engines[dst].AtCall(at, r.calls[dst], nil, child)
		return
	}
	r.x.Send(src, dst, at, se.AllocSeq(), r.calls[dst], nil, child)
}

func (r *runner) fire(node int, id int64) {
	r.logs[node] = append(r.logs[node], entry{r.engines[node].Now(), node, id})
	for _, a := range r.s.acts[id] {
		r.dispatch(node, a.dst, a.delay, a.child)
	}
}

// matchOracle runs a script serially and under topo through the caller
// barriers of barriers(until) and then to exhaustion, and fails unless
// every per-node log and every barrier's state match and the drain ends at
// the serial clock.
func matchOracle(t *testing.T, label string, s *script, topo par.Topology, until sim.Time) {
	t.Helper()
	stops := barriers(s, topo.Workers, until)
	ser := newRunnerTopo(s, topo.Workers, nil)
	ser.run(stops...)
	pp := newRunnerTopo(s, topo.Workers, &topo)
	pp.run(stops...)
	for n := range ser.logs {
		if !reflect.DeepEqual(ser.logs[n], pp.logs[n]) {
			t.Fatalf("%s topo %v node %d:\nserial   %v\nparallel %v",
				label, topo.Links, n, ser.logs[n], pp.logs[n])
		}
	}
	if !reflect.DeepEqual(ser.marks, pp.marks) {
		t.Fatalf("%s: barrier states diverge:\nserial   %v\nparallel %v", label, ser.marks, pp.marks)
	}
	if got, want := pp.x.Now(), ser.engines[0].Now(); got != want {
		t.Fatalf("%s: drain ended at %v, serial clock at %v", label, got, want)
	}
}

// barriers picks the caller barriers a run advances through before its
// drain: for every fifth event instant of a serial probe run before until,
// the tick before it and the instant itself — so barriers both hold
// events and sit one nanosecond short of them — and then until.
func barriers(s *script, workers int, until sim.Time) []sim.Time {
	probe := newRunnerTopo(s, workers, nil)
	probe.run(until)
	var at []sim.Time
	for _, log := range probe.logs {
		for _, e := range log {
			if e.At < until {
				at = append(at, e.At)
			}
		}
	}
	slices.Sort(at)
	at = slices.Compact(at)
	var stops []sim.Time
	for i := 0; i < len(at); i += 5 {
		stops = append(stops, at[i]-1, at[i])
	}
	return append(stops, until)
}

// run advances through each caller barrier in turn — RunUntil serially,
// AdvanceTo in parallel — marking the quiescent state at each, and then
// drains: Run serially, DrainAll in parallel.
func (r *runner) run(stops ...sim.Time) {
	advance, drain, now := r.engines[0].RunUntil, r.engines[0].Run, r.engines[0].Now
	if r.x != nil {
		r.x.Start()
		defer r.x.Shutdown()
		advance, drain, now = r.x.AdvanceTo, r.x.DrainAll, r.x.Now
	}
	for _, t := range stops {
		advance(t)
		mark := []int{int(now())}
		for _, log := range r.logs {
			mark = append(mark, len(log))
		}
		r.marks = append(r.marks, mark)
	}
	drain()
}

func TestParallelMatchesSerialOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := buildScript(rand.New(rand.NewSource(seed)), 3, 240)
		matchOracle(t, fmt.Sprintf("seed %d", seed), s, uniform(3, lookahead), 400)
	}
}

// The same property over random strongly connected topologies: a ring
// under random extra links with per-link latencies, scripts that send over
// any declared path. Exercises the all-pairs closure (multi-hop chains),
// per-pair window bounds and the self-echo cycle term — every run must
// still match the single-engine oracle exactly.
func TestRandomTopologyMatchesSerialOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := 2 + rng.Intn(2)
		topo, dist := ringTopology(rng, w)
		s := buildScriptDist(rng, w, 200, dist)
		matchOracle(t, fmt.Sprintf("seed %d", seed), s, topo, 500)
	}
}

func TestParallelDeterministic(t *testing.T) {
	s := buildScript(rand.New(rand.NewSource(42)), 3, 300)
	a := newRunner(s, 3)
	a.run(500)
	b := newRunner(s, 3)
	b.run(500)
	if !reflect.DeepEqual(a.logs, b.logs) {
		t.Fatal("two parallel runs diverged")
	}
}

// Cross-LP same-instant events must fire in schedule-time order — the
// composite seq key's dominant field — exactly as a serial run orders them.
func TestMergedInstantSchedTimeOrder(t *testing.T) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	ea.SetRank(0)
	eb.SetRank(1)
	x := par.New([]*sim.Engine{ea, eb}, uniform(2, lookahead))
	var order []string
	note := func(s string) sim.Call { return func(any, int64) { order = append(order, s) } }
	// A caller barrier at t=100 ends the round there, so every engine's
	// t=100 events run in the coordinator's merged-instant step. B's
	// first event is scheduled at time 0 with rank 1, A's at time 50
	// with rank 0: schedule time must dominate rank in the key, so B's
	// fires first despite A's lower rank. B's second, also scheduled at
	// 50, ties A's on schedule time and follows it on rank.
	eb.AtCall(100, note("b0"), nil, 0)
	ea.AtCall(50, func(any, int64) { ea.AtCall(100, note("a50"), nil, 0) }, nil, 0)
	eb.AtCall(50, func(any, int64) { eb.AtCall(100, note("b50"), nil, 0) }, nil, 0)
	x.Start()
	defer x.Shutdown()
	x.AdvanceTo(100)
	want := []string{"b0", "a50", "b50"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("merged instant order = %v, want %v", order, want)
	}
	if ea.Now() != 100 || eb.Now() != 100 || x.Now() != 100 {
		t.Fatalf("clocks = %v/%v, barrier %v, want all at 100", ea.Now(), eb.Now(), x.Now())
	}
}

// A round in which no worker has an event before its end is parked by
// the coordinator in place — no plan, no goroutine handoff — with one
// recorded park per shard, while every clock still tracks each barrier.
func TestIdleShardParking(t *testing.T) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	ea.SetRank(0)
	eb.SetRank(1)
	x := par.New([]*sim.Engine{ea, eb}, uniform(2, lookahead))
	rec := prof.NewRecorder(profNames(2))
	x.SetRecorder(rec)
	fired := false
	ea.AtCall(450, func(any, int64) { fired = true }, nil, 0)
	x.Start()
	defer x.Shutdown()
	// Caller barriers at 100, 200, ..., 1000; only the round ending at
	// 500 holds worker work.
	for b := sim.Time(100); b <= 1000; b += 100 {
		x.AdvanceTo(b)
		if ea.Now() != b || eb.Now() != b {
			t.Fatalf("clocks = %v/%v, want both parked at %v", ea.Now(), eb.Now(), b)
		}
	}
	if !fired || rec.Rounds != 10 {
		t.Fatalf("fired %v over %d rounds, want true over 10", fired, rec.Rounds)
	}
	for i := 0; i < 2; i++ {
		if p := rec.LaneAt(i).Parks; p != 9 {
			t.Fatalf("lane %d parked %d times, want 9", i, p)
		}
	}
}

// DrainAll must jump idle gaps (a far-future sentinel would otherwise cost
// billions of lookahead windows), terminate when everything is empty, and
// leave its last barrier at the last event, as a serial Run leaves its
// clock.
func TestDrainJumpsIdleGaps(t *testing.T) {
	ea := sim.NewEngine()
	x := par.New([]*sim.Engine{ea}, uniform(1, 10))
	fired := sim.Time(0)
	sentinel := sim.Time(3600) * sim.Second
	ea.AtCall(sentinel, func(any, int64) { fired = ea.Now() }, nil, 0)
	x.Start()
	defer x.Shutdown()
	x.AdvanceTo(100)
	x.DrainAll()
	if fired != sentinel || x.Now() != sentinel {
		t.Fatalf("sentinel fired at %v, drain ended at %v, want both %v", fired, x.Now(), sentinel)
	}
}

func TestShardPanicPropagates(t *testing.T) {
	ea := sim.NewEngine()
	x := par.New([]*sim.Engine{ea}, uniform(1, 10))
	ea.AtCall(5, func(any, int64) { panic("boom") }, nil, 0)
	x.Start()
	defer x.Shutdown()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	x.AdvanceTo(100)
	t.Fatal("expected panic")
}

// New must refuse an LP graph that is not strongly connected and name a
// pair with no path: here nothing leads from worker 0 to worker 1.
func TestTopologyNotStronglyConnectedPanics(t *testing.T) {
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, "not strongly connected: no path 0→1") {
			t.Fatalf("recovered %q, want strong-connectivity panic", r)
		}
	}()
	topo := par.Topology{Workers: 2, Links: []par.Link{{Src: 1, Dst: 0, Latency: 48}}}
	par.New([]*sim.Engine{sim.NewEngine(), sim.NewEngine()}, topo)
	t.Fatal("expected panic")
}

// A send whose delivery slack undercuts the declared link latency is the
// broken promise the conservative bounds rest on: it must fail fast.
func TestSendLookaheadViolationPanics(t *testing.T) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	ea.SetRank(0)
	eb.SetRank(1)
	x := par.New([]*sim.Engine{ea, eb}, uniform(2, lookahead))
	ea.AtCall(10, func(any, int64) {
		x.Send(0, 1, ea.Now()+lookahead-1, ea.AllocSeq(), func(any, int64) {}, nil, 0)
	}, nil, 0)
	x.Start()
	defer x.Shutdown()
	defer func() {
		r := recover()
		s, _ := r.(string)
		if !strings.Contains(s, "undercuts") {
			t.Fatalf("recovered %v, want lookahead-violation panic", r)
		}
	}()
	x.AdvanceTo(100)
	t.Fatal("expected panic")
}

// Randomized scripts over the cluster runner's star (see starTopology)
// must match the single-engine oracle exactly at every fleet size.
// Leaf->leaf paths exist only through the closure (up one spoke, down
// another).
func TestStarTopologyMatchesSerialOracle(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		leaves := 4 + rng.Intn(9) // 5..13 workers including the hub
		w := leaves + 1
		k := w // residue modulus; link latencies are multiples of k
		topo, dist := starTopology(rng, w, k)
		s := buildScriptStride(rng, w, 260, dist, k)
		matchOracle(t, fmt.Sprintf("seed %d (%d leaves)", seed, leaves), s, topo, 6000)
	}
}

// TestWorkerCapBoundary pins the worker ceiling: 255 LPs — the eight-bit
// rank space above the cluster runner's unused rank 0 — construct and
// run, with one message routed to every leaf end to end.
func TestWorkerCapBoundary(t *testing.T) {
	const w = 255
	var engines []*sim.Engine
	for n := 0; n < w; n++ {
		e := sim.NewEngine()
		e.SetRank(n)
		engines = append(engines, e)
	}
	topo := par.Topology{Workers: w}
	for l := 1; l < w; l++ {
		topo.Links = append(topo.Links,
			par.Link{Src: 0, Dst: l, Latency: 64},
			par.Link{Src: l, Dst: 0, Latency: 64})
	}
	x := par.New(engines, topo)
	hub := engines[0]
	got := make([]int, w)
	hub.AtCall(10, func(any, int64) {
		for l := 1; l < w; l++ {
			dst := l
			x.Send(0, dst, hub.Now()+64, hub.AllocSeq(),
				func(any, int64) { got[dst]++ }, nil, 0)
		}
	}, nil, 0)
	x.Start()
	defer x.Shutdown()
	x.AdvanceTo(200)
	for l := 1; l < w; l++ {
		if got[l] != 1 {
			t.Fatalf("leaf %d received %d messages, want 1", l, got[l])
		}
	}
	for n, e := range engines {
		if e.Now() != 200 {
			t.Fatalf("engine %d clock = %v, want 200", n, e.Now())
		}
	}
}

// One past the cap must refuse at construction: a 256th worker would need
// a rank the seq-key encoding cannot give it.
func TestWorkerCapExceededPanics(t *testing.T) {
	var engines []*sim.Engine
	for n := 0; n < 256; n++ {
		engines = append(engines, sim.NewEngine())
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for 256 workers")
		}
		if !strings.Contains(fmt.Sprint(r), "outside 1..255") {
			t.Fatalf("recovered %v, want worker-cap panic", r)
		}
	}()
	par.New(engines, uniform(256, 64))
}

// TestWideStarMatchesSerialOracle is the star oracle at fleet width:
// 100..128 worker LPs (including the hub) with randomized asymmetric spoke
// latencies.
func TestWideStarMatchesSerialOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed * 101))
		leaves := 99 + rng.Intn(29) // 100..128 workers including the hub
		w := leaves + 1
		k := w // residue modulus; link latencies are multiples of k
		topo, dist := starTopology(rng, w, k)
		s := buildScriptStride(rng, w, 4*w, dist, k)
		matchOracle(t, fmt.Sprintf("seed %d (%d leaves)", seed, leaves), s, topo, 200000)
	}
}
