// Package cluster runs a fleet of complete SNIC+host servers behind one
// shared ingress and a modeled top-of-rack fabric. Each server group is
// its own logical process on the conservative-parallel executor: the
// ingress/fabric LP generates and dispatches traffic, every worker LP
// hosts one or more full server instances (HLB, faults, power model and
// all), and the only cross-LP edges are the fabric's wire links — whose
// microsecond latency is exactly the lookahead the run-ahead planner
// feeds on. Serial and sharded cluster runs produce byte-identical
// Results; telemetry and the flight recorder stay read-only observers.
// The runner owns the barriers: it advances serial and sharded fleets
// alike to just before each telemetry instant, samples the quiescent
// state there, and then runs on to the end of the run.
package cluster

import (
	"fmt"

	"halsim/internal/energy"
	"halsim/internal/packet"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/sim/par"
	"halsim/internal/telemetry"
	"halsim/internal/telemetry/prof"
)

// serverEvents sizes a group engine's event queue per server before the
// build: a server files up to three periodic processes (a HAL server's
// monitor, policy and power ticks) before any traffic, plus room for one
// more, so a fleet's queue is allocated once rather than grown by
// doubling while its servers start.
const serverEvents = 4

// maxGroups keeps worker count (groups + ingress) within the executor's
// worker cap and the engine's eight-bit rank budget: the LPs take ranks
// 1..groups+1, which must stay below 256.
const maxGroups = 254

// crun is one cluster run.
type crun struct {
	cfg server.Config
	cc  server.ClusterConfig
	rc  server.RunConfig

	// engs[0] is the ingress/fabric engine; engs[1..groups] the server
	// group engines of a parallel run. A serial run has the one engine.
	engs   []*sim.Engine
	x      *par.Exec
	pools  []*packet.Pool
	groups int
	grpOf  []int // server -> group
	insts  []*server.Instance

	src  *server.TrafficSource
	disp dispatcher
	fab  *fabric

	// Ingress-owned state (worker 0 during windows, coordinator at
	// barriers). A request carries its server in the arrival event's
	// scalar, and a response carries it in the delivery event's scalar and
	// its request's length in ReqLen, so no per-request table and no
	// per-server handler is needed. m is the fleet's client-side meter.
	outstanding []int64
	m           *server.Meter
	reqCall     sim.Call
	respCall    sim.Call
	upCall      sim.Call

	// Cluster-owned telemetry, sampled between run's advances.
	col        *telemetry.Collector
	rec        *prof.Recorder
	telPeriod  sim.Time
	prevEvents uint64
	laneNames  []string
}

// Run executes a fleet described by cfg.Cluster. The returned Result is
// the aggregate: summed throughput, power and conservation ledger; fleet
// latency percentiles observed at the shared ingress (fabric round trip
// included); mean Fwd_Th and utilization across servers.
func Run(cfg server.Config, rc server.RunConfig) (server.Result, error) {
	if cfg.Cluster == nil {
		return server.Result{}, fmt.Errorf("cluster: Config.Cluster is nil")
	}
	if err := server.Normalize(&cfg, &rc); err != nil {
		return server.Result{}, err
	}
	cc, err := cfg.Cluster.WithDefaults()
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

// worker is the LP, and index into engs and pools, that runs server i:
// its group's in a parallel run, the one engine's in a serial run.
func (c *crun) worker(i int) int {
	if c.x == nil {
		return 0
	}
	return c.grpOf[i] + 1
}

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
		c.x = par.New(c.engs, topo)
	} else {
		c.engs = []*sim.Engine{sim.NewEngine()}
		c.pools = []*packet.Pool{packet.NewPool()}
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
	// its own streams, and takes the fault plan's events for its index; a
	// fault-free fleet splits into no plans at all.
	plans := c.cfg.Faults.Split(n)
	c.grpOf = make([]int, n)
	c.fab = newFabric(c.cc)
	fleet := server.NewFleet(n, c.respond)
	c.reqCall = fleet.IngressCall()
	perWorker := make([]int, len(c.engs))
	for i := 0; i < n; i++ {
		c.grpOf[i] = groupOf(i, n, c.groups)
		perWorker[c.worker(i)]++
	}
	for w, k := range perWorker {
		c.engs[w].Reserve(serverEvents * k)
	}
	for i := 0; i < n; i++ {
		w := c.worker(i)
		eng, pool := c.engs[w], c.pools[w]
		icfg := c.cfg
		icfg.Cluster, icfg.Faults = nil, nil
		if plans != nil {
			icfg.Faults = plans[i]
		}
		inst, err := fleet.NewInstance(icfg, c.rc, i, eng, pool)
		if err != nil {
			return fmt.Errorf("cluster: server %d: %w", i, err)
		}
		c.insts = append(c.insts, inst)
	}

	// Ingress: dispatch policy, outstanding counts, measurement.
	c.disp = newDispatcher(c.cc.Dispatch, n, c.cfg.Seed)
	c.outstanding = make([]int64, n)
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
		c.telPeriod = tcfg.WithDefaults().TimelinePeriod
	}
	c.m = server.NewMeter(c.rc, c.col)
	return nil
}

// start registers every periodic process and begins offering traffic.
func (c *crun) start() {
	for _, inst := range c.insts {
		inst.Start()
	}
	// The fleet's client-side meter runs at the ingress, fed by
	// response arrivals in request bytes.
	c.m.Start(c.engs[0])
	c.src.Start()
}

// run advances the fleet to Duration (and through the drain when asked).
// Telemetry samples at instants k·period+1, one nanosecond past the
// servers' own periodic work (all of which runs at whole-period
// multiples): the fleet advances through k·period inclusive — a barrier
// in a parallel run, where every LP is quiescent — and samples there.
func (c *crun) run() {
	advance, drain := c.engs[0].RunUntil, c.engs[0].Run
	if c.x != nil {
		c.x.Start()
		defer c.x.Shutdown()
		advance, drain = c.x.AdvanceTo, c.x.DrainAll
	}
	if c.col != nil {
		for t := c.telPeriod + 1; t <= c.rc.Duration; t += c.telPeriod {
			advance(t - 1)
			c.sample(t)
		}
	}
	advance(c.rc.Duration)
	if c.rc.Drain {
		// Every engine is parked at Duration and this goroutine owns all
		// state. Stopping the traffic and every periodic process lets
		// the event population empty.
		c.src.Stop()
		for _, e := range c.engs {
			e.CancelTickers()
		}
		drain()
	}
}

// dispatch is the ingress's emit hook: pick a server, count it in flight,
// serialize the packet onto that server's down-link and send it across
// the fabric. at is the arrival instant at the ingress (burst coalescing
// may place it ahead of the clock).
func (c *crun) dispatch(p *packet.Packet, at sim.Time) {
	i := c.disp.pick(c.outstanding)
	c.outstanding[i]++
	c.disp.counted(c.outstanding, i)
	arr := c.fab.down(i, at, p.WireLen)
	if c.x == nil {
		c.engs[0].AtCall(arr, c.reqCall, p, int64(i))
		return
	}
	c.x.Send(0, c.worker(i), arr, c.engs[0].AllocSeq(), c.reqCall, p, int64(i))
}

// respond carries a finished response from server srv back over the
// fabric's up-link to the ingress. Runs on the server's engine at the
// response's egress instant. In a podded fleet the server link only
// reaches the pod ToR; the pod-uplink serialization then runs as an
// ingress event (upCall) so its shared freeAt state has a single owner.
func (c *crun) respond(srv int, p *packet.Packet) {
	call := c.respCall
	if c.fab.pods > 1 {
		call = c.upCall
	}
	w := c.worker(srv)
	eng := c.engs[w]
	arr := c.fab.up(srv, eng.Now(), p.WireLen)
	if c.x == nil {
		eng.AtCall(arr, call, p, int64(srv))
		return
	}
	c.x.Send(w, 0, arr, eng.AllocSeq(), call, p, int64(srv))
}

// deliver closes one round trip of a request served by server srv at the
// ingress: latency, and throughput in the request's bytes. A request that
// was dropped never responds, so it stays outstanding.
func (c *crun) deliver(p *packet.Packet, srv int) {
	c.outstanding[srv]--
	c.disp.counted(c.outstanding, srv)
	c.m.Bytes(int(p.ReqLen), p.CreatedAt)
	c.m.RTT(int64(c.engs[0].Now())-p.CreatedAt, p.CreatedAt)
	c.pools[0].Put(p)
}

// sample assembles one fleet-wide telemetry sample stamped t. It runs
// between advances — at a barrier of a parallel run — so every counter it
// reads is quiescent and equals the serial value.
func (c *crun) sample(t sim.Time) {
	s := telemetry.Sample{T: t}
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
	for _, e := range c.engs {
		ev += e.Processed()
	}
	s.Events = ev - c.prevEvents
	c.prevEvents = ev
	sent, _, _ := c.src.Offered()
	c.col.Publish(s, sent)
}

// collect aggregates per-server Results and the ingress's own
// measurements into one fleet Result.
func (c *crun) collect() server.Result {
	totalP, sentP, sentB := c.src.Offered()
	measured := c.rc.Duration - c.rc.Warmup

	res := server.Result{
		Mode:   c.cfg.Mode,
		Fn:     c.cfg.Fn,
		Sent:   sentP,
		Engine: c.engineName(),
	}
	if measured > 0 {
		res.OfferedGbps = float64(sentB) * 8 / float64(measured)
	}

	// Per-server collection, one Result at a time; the offered side is
	// the ingress's. Phases sum throughput and power over the servers
	// (all share the fleet's phase edges); latency closes at the
	// ingress's meter.
	var snicShareNum float64
	nHAL := 0
	res.FailoverTicks = -1
	for i, inst := range c.insts {
		r := inst.Collect()
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
		if i == 0 {
			for _, edge := range r.Phases {
				res.Phases = append(res.Phases, server.PhaseStats{Start: edge.Start, End: edge.End})
			}
		}
		for k := range res.Phases {
			res.Phases[k].AvgGbps += r.Phases[k].AvgGbps
			res.Phases[k].AvgPowerW += r.Phases[k].AvgPowerW
			res.Phases[k].Completed += r.Phases[k].Completed
		}
	}
	for k := range res.Phases {
		ph := &res.Phases[k]
		ph.EffGbpsPerW = energy.EfficiencyGbpsPerWatt(ph.AvgGbps, ph.AvgPowerW)
	}
	if nHAL > 0 {
		res.FinalFwdTh /= float64(nHAL)
	}
	if n := len(c.insts); n > 0 {
		res.SNICUtil /= float64(n)
		res.HostUtil /= float64(n)
	}
	if res.AvgGbps > 0 {
		res.SNICShare = snicShareNum / res.AvgGbps
	}
	res.IdleW = res.AvgPowerW - res.HostActiveW - res.SNICActiveW
	res.EffGbpsPerW = energy.EfficiencyGbpsPerWatt(res.AvgGbps, res.AvgPowerW)
	res.SentAll = totalP
	res.InFlightEnd = int64(res.SentAll) - int64(res.CompletedAll) - int64(res.DroppedAll)
	if sentP > 0 {
		res.DropFraction = float64(res.DroppedAll) / float64(sentP)
	}
	c.m.Fill(&res)

	if c.rec != nil {
		for w, e := range c.engs {
			c.rec.AddWheel(c.laneNames[w], e.WheelStats())
		}
		res.Prof = c.rec
		if c.col != nil {
			c.col.PublishProf(c.rec)
		}
	}
	if c.col != nil {
		res.Timeline = c.col.Timeline
		res.Metrics = c.col.Registry
		// Every engine's clock is the run's end: Duration, or the last
		// drained event's instant (a parallel drain's last barrier).
		c.sample(c.engs[0].Now())
	}
	return res
}

func (c *crun) engineName() string {
	if c.x != nil {
		return "parallel"
	}
	return "serial"
}
