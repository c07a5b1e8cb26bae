// Package cluster runs a fleet of complete SNIC+host servers behind one
// shared ingress and a modeled top-of-rack fabric. Each server group is
// its own logical process on the conservative-parallel executor: the
// ingress/fabric LP generates and dispatches traffic, every worker LP
// hosts one or more full server instances (HLB, faults, power model and
// all), and the only cross-LP edges are the fabric's wire links — whose
// microsecond latency is exactly the lookahead the run-ahead planner
// feeds on. Serial and sharded cluster runs produce byte-identical
// Results; telemetry and the flight recorder stay read-only observers.
package cluster

import (
	"fmt"

	"halsim/internal/energy"
	"halsim/internal/fault"
	"halsim/internal/packet"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/sim/par"
	"halsim/internal/stats"
	"halsim/internal/telemetry"
	"halsim/internal/telemetry/prof"
)

// maxGroups keeps worker count (groups + ingress) within the executor's
// worker cap and the engine's eight-bit rank budget: ranks 1..groups+1
// for the LPs plus rank 0 for the control engine must all stay below 256.
const maxGroups = 254

// crun is one cluster run.
type crun struct {
	cfg server.Config
	cc  server.ClusterConfig
	rc  server.RunConfig

	// engs[0] is the ingress/fabric engine; engs[1..groups] the server
	// group engines. Serial runs alias every slot (and ctrl) to one
	// engine. ctrl carries only the telemetry tick, so a telemetry-off
	// parallel run advances in one coordinator round.
	engs   []*sim.Engine
	ctrl   *sim.Engine
	x      *par.Exec
	pools  []*packet.Pool
	groups int
	grpOf  []int // server -> group
	insts  []*server.Instance

	src  *server.TrafficSource
	disp dispatcher
	fab  *fabric

	// Ingress-owned state (worker 0 during windows, coordinator at
	// barriers). A response carries its server in the delivery event's
	// scalar and its request's length in ReqLen, so no per-request table
	// is needed.
	outstanding []int64
	totalPkts   []uint64 // per server, all-time dispatched
	totalB      []uint64
	sentPkts    []uint64 // per server, post-warmup dispatched
	sentB       []uint64
	lat         *stats.Histogram
	winB        int64
	rateWinB    int64
	winMaxGbps  float64
	rateSeries  []float64
	phases      []clusterPhase
	tickers     []*sim.Ticker
	reqCalls    []sim.Call
	respCall    sim.Call
	upCall      sim.Call

	// Cluster-owned telemetry (ctrl tick at barriers).
	col        *telemetry.Collector
	tl         *telemetry.Timeline
	cm         *server.ClusterMetrics
	rec        *prof.Recorder
	telPeriod  sim.Time
	telStop    bool
	prevEvents uint64
	laneNames  []string
}

type clusterPhase struct {
	start, end sim.Time
	hist       *stats.Histogram
}

// Run executes a fleet described by cfg.Cluster. The returned Result is
// the aggregate: summed throughput, power and conservation ledger; fleet
// latency percentiles observed at the shared ingress (fabric round trip
// included); mean Fwd_Th and utilization across servers.
func Run(cfg server.Config, rc server.RunConfig) (server.Result, error) {
	if cfg.Cluster == nil {
		return server.Result{}, fmt.Errorf("cluster: Config.Cluster is nil")
	}
	if cfg.Faults != nil {
		return server.Result{}, fmt.Errorf("cluster: per-server fault plans are not supported; use Cluster.Crashes")
	}
	if err := server.Normalize(&cfg, &rc); err != nil {
		return server.Result{}, err
	}
	cc, err := cfg.Cluster.WithDefaults(rc.Duration)
	if err != nil {
		return server.Result{}, err
	}
	c := &crun{cfg: cfg, cc: cc, rc: rc}
	if err := c.build(); err != nil {
		return server.Result{}, err
	}
	c.start()
	c.run()
	return c.collect(), nil
}

// groupOf maps server i of n onto one of g contiguous groups.
func groupOf(i, n, g int) int { return i * g / n }

// build wires engines, pools, instances, ingress and telemetry.
func (c *crun) build() error {
	n := c.cc.Servers
	parallel := c.cfg.Shards > 1 && n >= 1
	c.groups = 1
	if parallel {
		c.groups = c.cfg.Shards - 1
		if c.groups > n {
			c.groups = n
		}
		if c.groups > maxGroups {
			c.groups = maxGroups
		}
	}

	// Engines and pools: one per worker LP in a parallel run, a single
	// shared pair in a serial one (restoring the global free list and
	// queue a one-engine run would have).
	if parallel {
		c.ctrl = sim.NewEngine()
		c.ctrl.SetRank(0)
		for w := 0; w <= c.groups; w++ {
			e := sim.NewEngine()
			e.SetRank(w + 1)
			c.engs = append(c.engs, e)
			c.pools = append(c.pools, packet.NewPool())
		}
		// Downstream messages cross the spine wire too when the fleet is
		// podded, so that direction declares the wider (tighter-lookahead-
		// for-free) latency; upstream the pod uplink is resolved at the
		// ingress, so only the ToR wire is declared.
		downLat := c.cc.WireNS
		if c.cc.Pods > 1 {
			downLat += c.cc.SpineWireNS
		}
		topo := par.Topology{Workers: c.groups + 1}
		for g := 1; g <= c.groups; g++ {
			topo.Links = append(topo.Links,
				par.Link{Src: 0, Dst: g, Latency: downLat},
				par.Link{Src: g, Dst: 0, Latency: c.cc.WireNS})
		}
		c.x = par.New(c.ctrl, c.engs, topo)
	} else {
		e := sim.NewEngine()
		p := packet.NewPool()
		c.ctrl = e
		c.engs = []*sim.Engine{e}
		c.pools = []*packet.Pool{p}
	}

	// Lane names: ingress plus each group's server range.
	c.laneNames = []string{"ingress"}
	for g := 0; g < c.groups; g++ {
		lo, hi := -1, -1
		for i := 0; i < n; i++ {
			if groupOf(i, n, c.groups) == g {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
		}
		if lo == hi {
			c.laneNames = append(c.laneNames, fmt.Sprintf("server-%d", lo))
		} else {
			c.laneNames = append(c.laneNames, fmt.Sprintf("servers-%d-%d", lo, hi))
		}
	}

	// Server instances. Each runs on the fleet's seed, its index keying
	// its own streams, and — when crashed — a private fault plan driving
	// both-side Rx blackout windows.
	c.grpOf = make([]int, n)
	c.fab = newFabric(n, clusterShape{
		wireNS:      c.cc.WireNS,
		spineWireNS: c.cc.SpineWireNS,
		linkGbps:    c.cc.LinkGbps,
		pods:        c.cc.Pods,
		oversub:     c.cc.Oversub,
	})
	c.reqCalls = make([]sim.Call, n)
	for i := 0; i < n; i++ {
		g := groupOf(i, n, c.groups)
		c.grpOf[i] = g
		w := 0
		if len(c.engs) > 1 {
			w = g + 1
		}
		eng, pool := c.engs[w], c.pools[w]
		icfg := c.cfg
		icfg.Cluster = nil
		if plan := c.crashPlan(i); plan != nil {
			icfg.Faults = plan
		}
		srv, wkr := i, w
		inst, err := server.NewInstance(icfg, c.rc, i, eng, pool, func(p *packet.Packet) {
			c.respond(srv, wkr, p)
		})
		if err != nil {
			return fmt.Errorf("cluster: server %d: %w", i, err)
		}
		c.insts = append(c.insts, inst)
		c.reqCalls[i] = func(a any, _ int64) {
			inst.Ingress(a.(*packet.Packet), eng.Now())
		}
	}

	// Ingress: dispatch policy, outstanding counts, measurement.
	c.disp = newDispatcher(c.cc.Dispatch, n, c.cfg.Seed)
	c.outstanding = make([]int64, n)
	c.totalPkts = make([]uint64, n)
	c.totalB = make([]uint64, n)
	c.sentPkts = make([]uint64, n)
	c.sentB = make([]uint64, n)
	c.lat = stats.NewHistogram()
	c.respCall = func(a any, srv int64) { c.deliver(a.(*packet.Packet), int(srv)) }
	// upCall finishes a podded response's trip at the ingress: it fires
	// at the ToR-arrival instant, serializes the frame onto the pod's
	// upstream uplink (podUpFree is ingress-owned — a pod can span
	// several group LPs) and schedules the final delivery.
	c.upCall = func(a any, srv int64) {
		p := a.(*packet.Packet)
		arr := c.fab.podUp(int(srv), c.engs[0].Now(), p.WireLen)
		c.engs[0].AtCall(arr, c.respCall, p, srv)
	}
	if len(c.rc.PhaseMarks) > 0 {
		bounds := append([]sim.Time{0}, c.rc.PhaseMarks...)
		bounds = append(bounds, c.rc.Duration)
		for i := 0; i+1 < len(bounds); i++ {
			c.phases = append(c.phases, clusterPhase{
				start: bounds[i], end: bounds[i+1], hist: stats.NewHistogram(),
			})
		}
	}
	src, err := server.NewTrafficSource(c.cfg, c.rc, c.engs[0], c.pools[0], c.dispatch)
	if err != nil {
		return err
	}
	c.src = src

	// Telemetry: the collector bundle is cluster-owned; packet tracing is
	// not supported at fleet scale (Result.Trace stays nil), everything
	// else — timeline, registry, flight recorder — is.
	if c.cfg.Telemetry.Prof && c.x != nil {
		c.rec = prof.NewRecorder(c.laneNames)
		c.x.SetRecorder(c.rec)
	}
	tcfg := c.cfg.Telemetry
	tcfg.TraceEvery = 0
	c.col = telemetry.New(tcfg)
	if c.col != nil {
		c.tl = c.col.Timeline
		c.cm = server.NewClusterMetrics(c.col.Registry)
		c.telPeriod = tcfg.WithDefaults().TimelinePeriod
	}
	return nil
}

// crashPlan compiles server i's blackout windows into a fault plan: both
// Rx sides drop everything for each window, as if the NIC lost link.
func (c *crun) crashPlan(i int) *fault.Plan {
	var plan *fault.Plan
	for _, cr := range c.cc.Crashes {
		if cr.Server != i {
			continue
		}
		if plan == nil {
			plan = fault.NewPlan(c.cfg.Seed)
		}
		plan.DropSNICRx(cr.At, cr.At+cr.For, 1).
			DropHostRx(cr.At, cr.At+cr.For, 1)
	}
	return plan
}

// start registers every periodic process and begins offering traffic.
func (c *crun) start() {
	for _, inst := range c.insts {
		inst.Start()
	}

	// Fleet MaxGbps windows, observed at the ingress from response
	// arrivals (request wire bytes, warmup-gated like a single server's
	// completion path).
	window := 10 * sim.Millisecond
	if c.rc.Workload != nil {
		window = server.TraceEpoch
	}
	c.tickers = append(c.tickers, c.engs[0].Every(window, func() {
		winB := c.winB
		c.winB = 0
		if c.engs[0].Now() <= c.rc.Warmup {
			return
		}
		if g := float64(winB) * 8 / float64(window); g > c.winMaxGbps {
			c.winMaxGbps = g
		}
	}))
	if c.rc.RateWindow > 0 {
		c.tickers = append(c.tickers, c.engs[0].Every(c.rc.RateWindow, func() {
			c.rateSeries = append(c.rateSeries,
				float64(c.rateWinB)*8/float64(c.rc.RateWindow))
			c.rateWinB = 0
		}))
	}

	// Cluster telemetry tick: a control event, so in a parallel run each
	// sample lands at a coordinator barrier where every LP's state is
	// quiescent and readable. Offset one nanosecond past the period so
	// the tick never shares an instant with the servers' own periodic
	// work (all of which runs at whole-period multiples).
	if c.col != nil {
		var tick sim.Call
		tick = func(any, int64) {
			if c.telStop {
				return
			}
			c.sample()
			c.ctrl.AtCall(c.ctrl.Now()+c.telPeriod, tick, nil, 0)
		}
		c.ctrl.AtCall(c.telPeriod+1, tick, nil, 0)
	}

	c.src.Start()
}

// run advances the fleet to Duration (and through the drain when asked).
func (c *crun) run() {
	if c.x == nil {
		c.engs[0].RunUntil(c.rc.Duration)
		if c.rc.Drain {
			c.stopOffering()
			c.engs[0].Run()
		}
		return
	}
	c.x.Start()
	defer c.x.Shutdown()
	c.x.AdvanceTo(c.rc.Duration)
	if c.rc.Drain {
		// The final barrier parked every shard at Duration; the
		// coordinator owns all state, exactly like the serial drain
		// instant.
		c.stopOffering()
		c.x.DrainAll()
	}
}

// stopOffering ends traffic and cancels every periodic process so the
// event population can empty.
func (c *crun) stopOffering() {
	c.src.Stop()
	for _, t := range c.tickers {
		t.Cancel()
	}
	for _, inst := range c.insts {
		inst.CancelTickers()
	}
	c.telStop = true
}

// dispatch is the ingress's emit hook: pick a server, account the offered
// packet, serialize it onto that server's down-link and send it across
// the fabric. at is the arrival instant at the ingress (burst coalescing
// may place it ahead of the clock).
func (c *crun) dispatch(p *packet.Packet, at sim.Time) {
	i := c.disp.pick(c.outstanding)
	c.totalPkts[i]++
	c.totalB[i] += uint64(p.WireLen)
	if sim.Time(p.CreatedAt) >= c.rc.Warmup {
		c.sentPkts[i]++
		c.sentB[i] += uint64(p.WireLen)
	}
	c.outstanding[i]++
	arr := c.fab.down(i, at, p.WireLen)
	if c.x == nil {
		c.engs[0].AtCall(arr, c.reqCalls[i], p, 0)
		return
	}
	w := c.grpOf[i] + 1
	c.x.Send(0, w, arr, c.engs[0].AllocSeq(), c.reqCalls[i], p, 0)
}

// respond carries a finished response from server srv (running on worker
// wkr) back over the fabric's up-link to the ingress. Runs on the
// server's engine at the response's egress instant. In a podded fleet the
// server link only reaches the pod ToR; the pod-uplink serialization then
// runs as an ingress event (upCall) so its shared freeAt state has a
// single owner.
func (c *crun) respond(srv, wkr int, p *packet.Packet) {
	eng := c.engs[wkr]
	arr := c.fab.up(srv, eng.Now(), p.WireLen)
	call := c.respCall
	if c.fab.pods > 1 {
		call = c.upCall
	}
	n := int64(srv)
	if c.x == nil {
		eng.AtCall(arr, call, p, n)
		return
	}
	c.x.Send(wkr, 0, arr, eng.AllocSeq(), call, p, n)
}

// deliver closes one round trip of a request served by server srv at the
// ingress: latency, and throughput in the request's bytes. A request that
// was dropped never responds, so it stays outstanding.
func (c *crun) deliver(p *packet.Packet, srv int) {
	now := c.engs[0].Now()
	c.outstanding[srv]--
	rtt := int64(now) - p.CreatedAt
	if ph := c.phaseAt(sim.Time(p.CreatedAt)); ph != nil {
		ph.Record(rtt)
	}
	// The rate series is all-time (the recovery-time signal needs the
	// pre-warmup windows too); MaxGbps windows are warmup-gated like a
	// single server's completion path.
	c.rateWinB += int64(p.ReqLen)
	if sim.Time(p.CreatedAt) >= c.rc.Warmup {
		c.lat.Record(rtt)
		c.winB += int64(p.ReqLen)
	}
	if c.tl != nil {
		c.tl.RecordLatency(rtt)
	}
	c.pools[0].Put(p)
}

// phaseAt returns the phase histogram covering instant t, nil without
// phase marks.
func (c *crun) phaseAt(t sim.Time) *stats.Histogram {
	for i := range c.phases {
		if t >= c.phases[i].start && t < c.phases[i].end {
			return c.phases[i].hist
		}
	}
	return nil
}

// sample assembles one fleet-wide telemetry sample. It runs as a control
// event: at a coordinator barrier in a parallel run, inline in a serial
// one — either way every counter it reads is quiescent and equals the
// serial value at this instant.
func (c *crun) sample() {
	var s telemetry.Sample
	s.T = c.ctrl.Now()
	nctl := 0
	for _, inst := range c.insts {
		if inst.AddSample(&s, c.telPeriod) {
			nctl++
		}
	}
	if nctl > 0 {
		// Fleet means for the threshold-style registers; rates stay sums.
		s.FwdThGbps /= float64(nctl)
		s.SNICTPGbps /= float64(nctl)
	}
	var ev uint64
	for _, e := range c.distinctEngines() {
		ev += e.Processed()
	}
	s.Events = ev - c.prevEvents
	c.prevEvents = ev
	if c.tl != nil {
		c.tl.Push(s)
	}
	var sent uint64
	_, _, sp, _ := c.src.Offered()
	sent = sp
	c.cm.Publish(s, sent)
}

// distinctEngines lists every engine exactly once (serial runs alias
// them all).
func (c *crun) distinctEngines() []*sim.Engine {
	if c.x == nil {
		return c.engs[:1]
	}
	return append(append([]*sim.Engine{}, c.engs...), c.ctrl)
}

// collect aggregates per-server Results and the ingress's own
// measurements into one fleet Result.
func (c *crun) collect() server.Result {
	totalP, totalB, sentP, sentB := c.src.Offered()
	_ = totalB
	measured := c.rc.Duration - c.rc.Warmup

	res := server.Result{
		Mode:      c.cfg.Mode,
		Fn:        c.cfg.Fn,
		Completed: c.lat.Count(),
		Sent:      sentP,
		Engine:    c.engineName(),
	}
	res.P50us = float64(c.lat.P50()) / 1000
	res.P99us = float64(c.lat.P99()) / 1000
	res.P999us = float64(c.lat.P999()) / 1000
	if measured > 0 {
		res.OfferedGbps = float64(sentB) * 8 / float64(measured)
	}

	// Per-server collection. Offered counters are installed from the
	// ingress's dispatch ledger first so each server's own conservation
	// audit closes.
	sub := make([]server.Result, len(c.insts))
	for i, inst := range c.insts {
		inst.SetOffered(c.totalPkts[i], c.totalB[i], c.sentPkts[i], c.sentB[i])
		sub[i] = inst.Collect()
	}
	var snicShareNum float64
	nHAL := 0
	res.FailoverTicks = -1
	for _, r := range sub {
		res.AvgGbps += r.AvgGbps
		res.AvgPowerW += r.AvgPowerW
		res.HostActiveW += r.HostActiveW
		res.SNICActiveW += r.SNICActiveW
		res.Wakeups += r.Wakeups
		res.LBPAdjustments += r.LBPAdjustments
		res.LBPHolds += r.LBPHolds
		res.FuncErrors += r.FuncErrors
		res.CoherenceRemote += r.CoherenceRemote
		res.CompletedAll += r.CompletedAll
		res.DroppedAll += r.DroppedAll
		res.FaultDrops += r.FaultDrops
		res.Requeued += r.Requeued
		res.CoreCrashes += r.CoreCrashes
		res.FaultEvents += r.FaultEvents
		res.SNICUtil += r.SNICUtil
		res.HostUtil += r.HostUtil
		snicShareNum += r.SNICShare * r.AvgGbps
		if r.FinalFwdTh > 0 {
			res.FinalFwdTh += r.FinalFwdTh
			nHAL++
		}
		if r.FailoverTicks > res.FailoverTicks {
			res.FailoverTicks = r.FailoverTicks
		}
	}
	if nHAL > 0 {
		res.FinalFwdTh /= float64(nHAL)
	}
	if n := len(sub); n > 0 {
		res.SNICUtil /= float64(n)
		res.HostUtil /= float64(n)
	}
	if res.AvgGbps > 0 {
		res.SNICShare = snicShareNum / res.AvgGbps
	}
	res.IdleW = res.AvgPowerW - res.HostActiveW - res.SNICActiveW
	res.EffGbpsPerW = energy.EfficiencyGbpsPerWatt(res.AvgGbps, res.AvgPowerW)
	res.MaxGbps = c.winMaxGbps
	if res.MaxGbps < res.AvgGbps {
		res.MaxGbps = res.AvgGbps
	}
	res.SentAll = totalP
	res.InFlightEnd = int64(res.SentAll) - int64(res.CompletedAll) - int64(res.DroppedAll)
	if sentP > 0 {
		res.DropFraction = float64(res.DroppedAll) / float64(sentP)
	}

	// Phases: latency closes at the ingress, throughput/power on the
	// servers.
	for i := range c.phases {
		ph := server.PhaseStats{
			Start: c.phases[i].start,
			End:   c.phases[i].end,
			P99us: float64(c.phases[i].hist.P99()) / 1000,
		}
		for _, r := range sub {
			if i < len(r.Phases) {
				ph.AvgGbps += r.Phases[i].AvgGbps
				ph.AvgPowerW += r.Phases[i].AvgPowerW
				ph.Completed += r.Phases[i].Completed
			}
		}
		ph.EffGbpsPerW = energy.EfficiencyGbpsPerWatt(ph.AvgGbps, ph.AvgPowerW)
		res.Phases = append(res.Phases, ph)
	}
	res.RateSeries = c.rateSeries
	res.RateWindow = c.rc.RateWindow

	if c.rec != nil {
		c.rec.SetObservedFloors(c.x.ObservedSlack())
		for w, e := range c.engs {
			c.rec.AddWheel(c.laneNames[w], e.WheelStats())
		}
		c.rec.AddWheel("ctrl", c.ctrl.WheelStats())
		res.Prof = c.rec
		if c.col != nil {
			server.PublishProf(c.col.Registry, c.rec)
		}
	}
	if c.col != nil {
		res.Timeline = c.tl
		res.Metrics = c.col.Registry
		c.sample()
	}
	return res
}

func (c *crun) engineName() string {
	if c.x != nil {
		return "parallel"
	}
	return "serial"
}
