// Package server composes the full system of the paper: a client offering
// traffic to a BlueField-2-equipped server that processes one (or a
// pipeline of two) network functions on the SNIC processor, the host
// processor, or both — balanced by HAL's hardware blocks (§V) or by the
// software load balancer SLB (§IV).
//
// A Run wires client → (HLB) → eSwitch → DPDK rings → processor stations →
// (merger) → client inside one deterministic discrete-event simulation and
// reports the paper's metrics: throughput, p99 latency, average power, and
// energy efficiency.
package server

import (
	"fmt"
	"strings"

	"halsim/internal/coherence"
	"halsim/internal/core"
	"halsim/internal/cxl"
	"halsim/internal/dpdk"
	"halsim/internal/energy"
	"halsim/internal/eswitch"
	"halsim/internal/fault"
	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/platform"
	"halsim/internal/rng"
	"halsim/internal/sim"
	"halsim/internal/stats"
	"halsim/internal/telemetry"
	"halsim/internal/telemetry/prof"
	"halsim/internal/trace"

	// Link in every benchmark function implementation so nf.New works
	// for any ID the experiments ask for.
	_ "halsim/internal/nf/bayesfn"
	_ "halsim/internal/nf/bm25fn"
	_ "halsim/internal/nf/compressfn"
	_ "halsim/internal/nf/countfn"
	_ "halsim/internal/nf/cryptofn"
	_ "halsim/internal/nf/emafn"
	_ "halsim/internal/nf/knnfn"
	_ "halsim/internal/nf/kvsfn"
	_ "halsim/internal/nf/natfn"
	_ "halsim/internal/nf/remfn"
)

// Mode selects who processes packets.
type Mode int

// Operating modes.
const (
	// HostOnly: the host processor handles every packet (the paper's
	// "Host" baseline).
	HostOnly Mode = iota
	// SNICOnly: the SNIC processor handles every packet ("SNIC").
	SNICOnly
	// HAL: hardware-assisted load balancing between both ("HAL").
	HAL
	// SLB: the software load balancer of §IV on SNIC CPU cores.
	SLB
	// SLBHost: the §IV alternative of running the software balancer on
	// the host CPU — every packet crosses the host first, keeping its
	// power-hungry cores always active and doubling the DPDK processing
	// on the packets handed back to the SNIC.
	SLBHost
)

func (m Mode) String() string {
	switch m {
	case HostOnly:
		return "Host"
	case SNICOnly:
		return "SNIC"
	case HAL:
		return "HAL"
	case SLB:
		return "SLB"
	case SLBHost:
		return "SLB-host"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// modeNames are the lower-case names ParseMode accepts, in Mode order.
var modeNames = []string{"host", "snic", "hal", "slb", "slb-host"}

// ParseMode maps a mode name (host, snic, hal, slb or slb-host; any case)
// onto its Mode.
func ParseMode(name string) (Mode, error) {
	for i, n := range modeNames {
		if strings.EqualFold(name, n) {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want %s)", name, strings.Join(modeNames, ", "))
}

// Config describes one server setup.
type Config struct {
	Mode     Mode
	Fn       nf.ID
	FnConfig string

	// Pipeline optionally names a second function fed by the first
	// (§VII-B "two pipelined functions"), run with its default config.
	Pipeline   nf.ID
	PipelineOn bool

	// SNIC and Host default to BlueField2() and HostXeon(). A variant
	// profile (e.g. a REM ruleset) is a platform whose Profiles map
	// carries it.
	SNIC *platform.Platform
	Host *platform.Platform

	// HALConfig tunes HAL; zero value takes core.DefaultConfig with
	// AdaptiveStep on.
	HALConfig *core.Config

	// SLBFwdThGbps and SLBCores configure §IV's software balancer.
	SLBFwdThGbps float64
	SLBCores     int

	// Fabric selects the SNIC attachment that shares a stateful
	// function's state between the host and SNIC processors; each run
	// builds its own coherence directory for it. The zero value,
	// cxl.NoFabric, runs stateful functions "like stateless ones" (the
	// paper's measurement methodology for Table V).
	Fabric cxl.FabricKind

	// Mix interleaves a second, independent function on the same
	// processors: MixFraction of packets carry it (§V-B's multi-function
	// scenario, where a single profiled threshold cannot be right).
	// MixShiftAt optionally changes the fraction from MixFractionBefore
	// to MixFraction at that simulated instant — a run-time workload
	// change the dynamic LBP must chase.
	MixOn             bool
	MixFn             nf.ID
	MixFraction       float64
	MixFractionBefore float64
	MixShiftAt        sim.Time

	// Functional executes the real network function on every payload
	// (slower; used by correctness-under-load tests and examples).
	Functional bool

	// Faults optionally injects a deterministic schedule of fault events
	// — core crashes/recoveries, accelerator degradation to the
	// software-path profile, Rx-ring drop faults, telemetry blackout —
	// into the run. Same seed + same plan ⇒ identical results.
	Faults *fault.Plan

	// Telemetry opts into the observability layer: a time-series timeline
	// (Result.Timeline), sampled packet-lifecycle tracing (Result.Trace),
	// and a metric registry (Result.Metrics). The zero value disables all
	// of it at zero cost; enabling it is purely observational — the run's
	// Result is byte-identical either way.
	Telemetry telemetry.Config

	// Shards selects a fleet's simulation engine (Cluster must be set):
	// 0 or 1 runs the serial single-engine simulator; a larger value
	// runs the conservative-parallel engine with one ingress logical
	// process and Shards-1 server-group LPs on separate goroutines.
	// Results are byte-identical either way. A single server always runs
	// serially, and Run rejects Shards > 1 without a Cluster.
	Shards int

	// Cluster, when non-nil, asks for a fleet-scale run: Servers full
	// SNIC+host instances of this very Config behind a shared ingress
	// and a modeled ToR fabric, each server (group) its own logical
	// process. Plain data here so the server package stays free of the
	// cluster runner; execute through the facade (halsim.Run) or
	// internal/cluster.Run — server.Run rejects a cluster config.
	Cluster *ClusterConfig

	RingSize int
	Seed     int64
}

// TraceEpoch is how often a trace workload re-draws its offered rate
// (RunConfig.Workload).
const TraceEpoch = sim.Millisecond

// RunConfig describes one experiment run.
type RunConfig struct {
	Duration sim.Time
	// RateGbps offers a constant load; Workload, when non-nil, modulates
	// the rate with the log-normal trace generator instead.
	RateGbps float64
	Workload *trace.Workload
	// Sizes defaults to MTU-only, as in the paper's experiments.
	Sizes *trace.SizeDist
	// Warmup is excluded from statistics (default Duration/5, capped at
	// 100 ms).
	Warmup sim.Time

	// PhaseMarks optionally split the run into measurement windows at
	// the given ascending instants; Result.Phases then reports
	// per-window throughput, p99, and power (fault experiments mark the
	// fault window's edges). Packets attribute to the phase they were
	// created in.
	PhaseMarks []sim.Time
	// RateWindow, when non-zero, records a delivered-rate time series at
	// that resolution in Result.RateSeries — the recovery-time signal.
	RateWindow sim.Time
	// Drain keeps the simulation running past Duration with the client
	// stopped until every queued and in-flight packet completes or
	// drops, which makes the packet-conservation audit exact:
	// SentAll == CompletedAll + DroppedAll and InFlightEnd == 0.
	Drain bool
}

// Result carries the paper's metrics for one run.
type Result struct {
	Mode Mode
	Fn   nf.ID

	OfferedGbps     float64
	AvgGbps         float64 // delivered, post-warmup average
	MaxGbps         float64 // best 10 ms delivered window
	P50us, P99us    float64
	P999us          float64
	AvgPowerW       float64
	EffGbpsPerW     float64
	DropFraction    float64
	SNICShare       float64 // fraction of delivered bytes processed on SNIC
	Wakeups         uint64
	FinalFwdTh      float64
	LBPAdjustments  uint64
	Completed       uint64
	Sent            uint64
	SNICUtil        float64
	HostUtil        float64
	CoherenceRemote uint64
	// Power decomposition (time-averaged): the static server floor, the
	// host's poll+work adder, and the SNIC's active adder. Their sum is
	// AvgPowerW.
	IdleW       float64
	HostActiveW float64
	SNICActiveW float64
	// FuncErrors counts functional-mode processing failures (always 0
	// unless Config.Functional is set and a stage rejected a request).
	FuncErrors uint64

	// Robustness accounting (all-time, warmup included, so packet
	// conservation holds exactly): every offered packet is completed,
	// dropped, or still in flight when the run ends.
	SentAll      uint64
	CompletedAll uint64
	DroppedAll   uint64
	InFlightEnd  int64 // SentAll - CompletedAll - DroppedAll; 0 after a drained run
	// Fault-layer observables.
	FaultEvents uint64 // injected plan events
	FaultDrops  uint64 // packets lost to ring faults or dead stations
	Requeued    uint64 // packets re-homed off crashed cores
	CoreCrashes uint64
	LBPHolds    uint64 // LBP ticks the telemetry watchdog suppressed
	// FailoverTicks is how many LBP ticks the last capacity-loss
	// failover snap took (-1 when none completed).
	FailoverTicks int
	// Phases and RateSeries are populated per RunConfig.PhaseMarks /
	// RunConfig.RateWindow.
	Phases     []PhaseStats
	RateSeries []float64
	RateWindow sim.Time

	// Telemetry artifacts, populated per Config.Telemetry (nil when the
	// corresponding collector was off): the per-tick time-series ring, the
	// sampled packet-lifecycle trace, and the metric registry.
	Timeline *telemetry.Timeline
	Trace    *telemetry.Tracer
	Metrics  *telemetry.Registry

	// Prof is the parallel engine's flight recorder (Config.Telemetry.Prof
	// on a sharded fleet; nil otherwise — serial runs have no windows to
	// record). Unlike the artifacts above it describes the engine, not the
	// simulation, so its contents are per-shard-count: deterministic
	// across repeats at the same Shards, but not part of the
	// engine-invariance contract. Wall-clock fields (latch/plan/barrier
	// nanoseconds) are the one nondeterministic part and never feed
	// byte-compared artifacts.
	Prof *prof.Recorder

	// Engine reports which simulation engine executed the run: "serial",
	// or "parallel" for a fleet run with Config.Shards > 1. Purely
	// informational — results are byte-identical across engines.
	Engine string
}

// sideStations are one processor side's stations. The first stage is
// embedded, so the run's block holds both sides' packet-path state.
type sideStations struct {
	first  station
	second *station // pipeline stage, may be nil
}

// portPairObserver reports the max occupancy across a side's ports (LBP's
// queue signal).
type portPairObserver struct{ a, b *dpdk.Port }

func (o portPairObserver) MaxOccupancy() int {
	m := o.a.MaxOccupancy()
	if o.b != nil && o.b.MaxOccupancy() > m {
		m = o.b.MaxOccupancy()
	}
	return m
}

// Addresses used by every run.
var (
	clientAddr = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 9}, IP: packet.IPv4{10, 0, 0, 9}}
	snicAddr   = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.IPv4{10, 0, 0, 1}}
	hostAddr   = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.IPv4{10, 0, 0, 2}}
)

// Run executes one experiment and returns its metrics.
func Run(cfg Config, rc RunConfig) (Result, error) {
	if cfg.Cluster != nil {
		return Result{}, fmt.Errorf("server: Config.Cluster set; run fleets through the halsim facade or internal/cluster")
	}
	if cfg.Shards > 1 {
		return Result{}, fmt.Errorf("server: %d shards requested for a single server; shards apply to fleets (set Config.Cluster)", cfg.Shards)
	}
	if err := prepare(&cfg, &rc); err != nil {
		return Result{}, err
	}

	r := &run{cfg: cfg, rc: rc, eng: sim.NewEngine(), pool: packet.NewPool()}
	if err := r.build(); err != nil {
		return Result{}, err
	}
	r.start()
	r.eng.RunUntil(rc.Duration)
	if rc.Drain {
		// Stop offering traffic and cancel every periodic process, then
		// let the event queue empty: whatever is still queued or
		// mid-service completes (or tail-drops), so the conservation audit
		// closes exactly.
		r.cli.stop()
		for _, t := range r.tickers {
			t.Cancel()
		}
		r.eng.Run()
	}
	return r.collect(), nil
}

// prepare applies defaults and validates one server's Config/RunConfig in
// place. Shared by Run and by NewInstance, so an embedded cluster server
// obeys exactly the rules a standalone run does.
func prepare(cfg *Config, rc *RunConfig) error {
	if cfg.SNIC == nil {
		cfg.SNIC = platform.BlueField2()
	}
	if cfg.Host == nil {
		cfg.Host = platform.HostXeon()
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = dpdk.DefaultRingSize
	}
	if cfg.RingSize < 0 {
		return fmt.Errorf("server: negative ring size %d", cfg.RingSize)
	}
	if rc.Duration <= 0 {
		return fmt.Errorf("server: non-positive duration")
	}
	if err := nf.CheckConfig(cfg.Fn, cfg.FnConfig); err != nil {
		return err
	}
	if cfg.PipelineOn {
		if err := nf.CheckConfig(cfg.Pipeline, ""); err != nil {
			return err
		}
	}
	if rc.Sizes == nil {
		rc.Sizes = trace.MTUOnly()
	}
	if rc.Warmup == 0 {
		rc.Warmup = rc.Duration / 5
		if rc.Warmup > 100*sim.Millisecond {
			rc.Warmup = 100 * sim.Millisecond
		}
	}
	if !cfg.Fabric.Valid() {
		return fmt.Errorf("server: unknown fabric %v", cfg.Fabric)
	}
	if cfg.Fn.Stateful() && cfg.Fabric != cxl.NoFabric && (cfg.Mode == HAL || cfg.Mode == SLB || cfg.Mode == SLBHost) &&
		!cfg.Fabric.SupportsCooperativeState() {
		return fmt.Errorf("server: %v is stateful; cooperative processing over %v needs CXL (§V-C)",
			cfg.Fn, cfg.Fabric)
	}
	if cfg.MixOn {
		if cfg.MixFraction < 0 || cfg.MixFraction > 1 ||
			cfg.MixFractionBefore < 0 || cfg.MixFractionBefore > 1 {
			return fmt.Errorf("server: mix fractions must be within [0,1]")
		}
		if cfg.PipelineOn {
			return fmt.Errorf("server: Mix and Pipeline are mutually exclusive")
		}
	}
	if cfg.Mode == SLB {
		if cfg.SLBCores <= 0 || cfg.SLBCores >= 8 {
			return fmt.Errorf("server: SLB needs 1..7 forwarding cores, got %d", cfg.SLBCores)
		}
	}
	if cfg.Mode == SLB || cfg.Mode == SLBHost {
		if cfg.SLBFwdThGbps <= 0 {
			return fmt.Errorf("server: %v needs a forwarding threshold", cfg.Mode)
		}
	}

	for i, m := range rc.PhaseMarks {
		if m <= 0 || m >= rc.Duration {
			return fmt.Errorf("server: phase mark %v outside (0, %v)", m, rc.Duration)
		}
		if i > 0 && m <= rc.PhaseMarks[i-1] {
			return fmt.Errorf("server: phase marks must be ascending")
		}
	}
	if rc.RateWindow < 0 {
		return fmt.Errorf("server: negative rate window")
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("server: negative shard count %d", cfg.Shards)
	}
	if rc.Duration > sim.SeqMaxTime {
		return fmt.Errorf("server: duration %v exceeds the engine's %v schedule horizon", rc.Duration, sim.SeqMaxTime)
	}

	return nil
}

// run holds the wired-up simulation.
type run struct {
	cfg Config
	// index is the server's place in its fleet, 0 for a standalone
	// server. With cfg.Seed it keys the server's jitter and fault streams.
	index int

	// The packet path's state follows: the fields each packet touches,
	// then its components embedded by value, so a fleet packet walks its
	// server's one block instead of a dozen separate objects.

	// eng runs the whole server; a fleet injects its group's engine.
	eng *sim.Engine
	// pool recycles packets: requests are released on completion or at
	// their drop point, responses after client delivery. LIFO reuse keeps
	// replays bit-identical.
	pool *packet.Pool
	// tr is the sampled lifecycle tracer, nil with Config.Telemetry off.
	tr *telemetry.Tracer

	// Pre-bound event handlers for closure-free scheduling on the packet
	// path (sim.ScheduleCall): each is allocated once per run and carries
	// the packet as the event's argument word.
	arriveSNICCall sim.Call
	arriveHostCall sim.Call
	halIngressCall sim.Call
	forwardCall    sim.Call
	toSNICCall     sim.Call
	toHostCall     sim.Call

	// fwdAt is the wire-arrival base time of the packet currently inside
	// sw.Forward: the PCIe-crossing binds schedule the arrive events at
	// fwdAt+crossing instead of Now+crossing, so a burst-coalesced ingress
	// (which forwards packets before their arrival instant) still lands
	// every packet at its exact analytic arrival time. Every Forward call
	// site sets it first; outside burst expansion it equals the clock.
	fwdAt sim.Time

	// respond, when non-nil, intercepts wire-bound responses in place of
	// deliverResponse so a cluster can carry them back over its fabric.
	respond func(*packet.Packet)

	// The completion path accrues completed, the delivered bytes, and the
	// two rate-window accumulators.
	completed  uint64
	deliveredB uint64 // post-warmup delivered bytes
	snicB      uint64 // the SNIC-processed part of deliveredB (SNICShare)
	winB       int64  // MaxGbps window accumulator
	rateWinB   int64  // RateSeries window accumulator
	warmupEnd  sim.Time
	phases     []phaseAcc

	// hal is live in HAL mode, slbDir and slbMon in the SLB modes.
	snic   sideStations
	sw     eswitch.Switch
	hal    core.HAL
	host   sideStations
	slbDir core.TrafficDirector
	slbMon core.TrafficMonitor
	slbFwd *station

	rc RunConfig

	// fn is the run's function, mix the function mix-tagged packets carry
	// (nil without Config.MixOn), fn2 a pipeline's second stage, and
	// stateFn fn's StateLines consumer, nil when nothing reads fn's state.
	fn, mix nf.Function
	fn2     nf.Function
	stateFn nf.StateFunction
	// fab is this run's own coherence fabric, nil unless stateFn reads
	// state through one; no two runs — not even two servers of one
	// fleet — share a directory.
	fab *cxl.Fabric

	hostSleep *dpdk.SleepController

	// cli offers a standalone server's traffic; off is what was offered:
	// the client's own counters, or in an embedded server those the
	// ingress installs through Instance.SetOffered.
	cli *client
	off *offered

	// embedded marks a server built by NewInstance as one member of a
	// cluster: the engine and pool are injected (the owning group's), and
	// there is no client (the shared ingress offers the traffic).
	embedded bool

	// fault machinery
	inj           *fault.Injector
	faultRng      rng.Rand
	telemetryDown bool

	// observability (all nil/zero with Config.Telemetry off; every hook
	// site nil-checks the specific field it feeds).
	col           *telemetry.Collector
	tl            *telemetry.Timeline
	tm            *telMetrics
	telPeriod     sim.Time
	telPrevSNICB  uint64
	telPrevHostB  uint64
	telPrevEvents uint64

	// measurement
	lat        *stats.Histogram
	powerHost  energy.Integrator
	powerSNIC  energy.Integrator
	winMaxGbps float64
	power      energy.Integrator
	funcErrs   uint64
	rateSeries []float64
	tickers    []*sim.Ticker
}

// A server's stations draw jitter from a block of eight streams, one per
// station in this order.
const (
	jitterSNIC = iota
	jitterHost
	jitterSNIC2
	jitterHost2
	jitterFwd
)

// jitter returns the jitter stream of the server's station at slot k.
func (r *run) jitter(k uint64) rng.Rand {
	return rng.Stream(r.cfg.Seed, rng.Jitter, uint64(r.index)*8+k)
}

func (r *run) build() error {
	cfg := r.cfg
	r.arriveSNICCall = func(a any, _ int64) { r.arriveSNIC(a.(*packet.Packet)) }
	r.arriveHostCall = func(a any, _ int64) { r.arriveHost(a.(*packet.Packet)) }
	r.halIngressCall = func(a any, _ int64) {
		p := a.(*packet.Packet)
		diverted := r.hal.Ingress(p)
		if r.tr.Sampled(p.ID) {
			kind := telemetry.KindKeep
			if diverted {
				kind = telemetry.KindDivert
			}
			r.tr.Emit(telemetry.Span{T: r.eng.Now(), Kind: kind,
				Station: telemetry.StHLB, Core: -1, Pkt: p.ID})
		}
		r.fwdAt = r.eng.Now()
		r.sw.Forward(p)
	}
	// forwardCall carries completed responses to the wire at their egress
	// instant, so the HAL merger — which must see host responses before the
	// eSwitch does — applies here rather than at the completion site.
	r.forwardCall = func(a any, _ int64) {
		p := a.(*packet.Packet)
		if r.cfg.Mode == HAL {
			r.hal.Egress(p)
		}
		r.fwdAt = r.eng.Now()
		r.sw.Forward(p)
	}
	r.toSNICCall = func(a any, _ int64) { r.snic.first.enqueue(a.(*packet.Packet)) }
	r.toHostCall = func(a any, _ int64) { r.host.first.enqueue(a.(*packet.Packet)) }
	fns, err := newFunctions(cfg)
	if err != nil {
		return err
	}
	r.fn, r.mix = fns.fn, fns.mix
	r.stateFn = stateConsumer(r.fn, cfg)
	if cfg.PipelineOn {
		r.fn2, _, err = nf.New(cfg.Pipeline, "")
		if err != nil {
			return err
		}
	}
	snicProf := cfg.SNIC.Profile(cfg.Fn)
	hostProf := cfg.Host.Profile(cfg.Fn)

	if cfg.Mode == SLB {
		// §IV: SLBCores forward, the rest process.
		procCores := snicProf.Servers - cfg.SLBCores
		scaled := snicProf
		scaled.MaxGbps = snicProf.MaxGbps * float64(procCores) / float64(snicProf.Servers)
		scaled.Servers = procCores
		snicProf = scaled
	}

	r.snic.first.init(r.eng, "snic", snicProf, cfg.RingSize, r.jitter(jitterSNIC))
	r.host.first.init(r.eng, "host", hostProf, cfg.RingSize, r.jitter(jitterHost))
	r.snic.first.release = r.pool.Put
	r.host.first.release = r.pool.Put
	if cfg.MixOn {
		sp := cfg.SNIC.Profile(cfg.MixFn)
		hp := cfg.Host.Profile(cfg.MixFn)
		r.snic.first.setAltProfile(&sp)
		r.host.first.setAltProfile(&hp)
	}
	if cfg.PipelineOn {
		r.snic.second = newStation(r.eng, "snic2", cfg.SNIC.Profile(cfg.Pipeline), cfg.RingSize, r.jitter(jitterSNIC2))
		r.host.second = newStation(r.eng, "host2", cfg.Host.Profile(cfg.Pipeline), cfg.RingSize, r.jitter(jitterHost2))
		r.snic.second.release = r.pool.Put
		r.host.second.release = r.pool.Put
	}

	// Coherent state access cost for stateful cooperative processing.
	// Misses overlap with the packet's own byte processing, so only the
	// part of the (MLP-overlapped) miss latency that exceeds the
	// computation slack stalls the core — the reason the paper sees just
	// 0.3–0.4% throughput loss from coherence (§VII-B).
	if r.stateFn != nil {
		r.fab = cxl.NewFabric(cfg.Fabric)
		stateCost := func(node int, prof platform.FnProfile) func(*packet.Packet) sim.Time {
			return func(p *packet.Packet) sim.Time {
				if p.FnTag != 0 {
					// Mixed-in second function: its state (if any) is
					// not the primary function's shared region.
					return 0
				}
				raw := r.fab.AccessOverlapped(coherence.NodeID(node), r.stateFn.StateLines(p.Payload), true)
				slack := sim.Time(float64(prof.ServiceTime(p.WireLen, nil)) * 0.75)
				if raw <= slack {
					return 0
				}
				return raw - slack
			}
		}
		r.snic.first.extra = stateCost(1, snicProf)
		r.host.first.extra = stateCost(0, hostProf)
	}

	// Host sleep (HAL only; the host must poll in every other mode).
	if cfg.Mode == HAL {
		r.hostSleep = &dpdk.SleepController{
			IdleThreshold: 100 * sim.Microsecond,
			WakePenalty:   platform.WakeupPenaltyNS,
		}
		r.host.first.sleep = r.hostSleep
	}

	// eSwitch wiring. The bind closures are allocated once; per-packet
	// crossings schedule through the pre-bound handlers.
	r.sw.Bind(eswitch.PortSNIC, func(p *packet.Packet) {
		r.eng.AtCall(r.fwdAt+platform.PCIeCrossNS, r.arriveSNICCall, p, 0)
	})
	r.sw.Bind(eswitch.PortHost, func(p *packet.Packet) {
		r.eng.AtCall(r.fwdAt+platform.PCIeCrossNS+platform.SNICCloserNS, r.arriveHostCall, p, 0)
	})
	wire := func(p *packet.Packet) { r.deliverResponse(p) }
	if r.respond != nil {
		wire = r.respond
	}
	r.sw.Bind(eswitch.PortWire, wire)

	switch cfg.Mode {
	case HostOnly:
		r.sw.AddRule(eswitch.Rule{MatchMAC: snicAddr.MAC, MatchIP: snicAddr.IP, Out: eswitch.PortHost, Priority: 10})
		r.sw.AddRule(eswitch.Rule{Out: eswitch.PortWire})
	case SNICOnly:
		r.sw.AddRule(eswitch.Rule{MatchMAC: snicAddr.MAC, MatchIP: snicAddr.IP, Out: eswitch.PortSNIC, Priority: 10})
		r.sw.AddRule(eswitch.Rule{Out: eswitch.PortWire})
	case HAL, SLB:
		r.sw.ConfigureHAL(snicAddr, hostAddr)
	case SLBHost:
		// Every client packet goes to the host first; the host's SLB
		// hands the SNIC its share over the long path.
		r.sw.AddRule(eswitch.Rule{MatchMAC: snicAddr.MAC, MatchIP: snicAddr.IP, Out: eswitch.PortHost, Priority: 10})
		r.sw.AddRule(eswitch.Rule{Out: eswitch.PortWire})
	}

	// HAL blocks.
	if cfg.Mode == HAL {
		hc := core.DefaultConfig(snicAddr, hostAddr)
		hc.AdaptiveStep = true
		if cfg.HALConfig != nil {
			hc = *cfg.HALConfig
			hc.SNICAddr, hc.HostAddr = snicAddr, hostAddr
		}
		obs := portPairObserver{a: &r.snic.first.port}
		if r.snic.second != nil {
			obs.b = &r.snic.second.port
		}
		// The occupancy path runs through a freezer so a telemetry
		// blackout replays stale readings (what a wedged monitor core
		// would report) instead of live ones.
		if err := r.hal.Init(hc, &frozenObserver{inner: obs, down: &r.telemetryDown}); err != nil {
			return err
		}
		// Capacity signal: SNIC core crashes/recoveries reach the LBP
		// watchdog directly (the LBP core observes its sibling cores'
		// heartbeats), arming the bounded Fwd_Th failover.
		r.snic.first.onCapacity = func(alive, total int) {
			r.hal.Policy.OnCapacityChange(float64(alive) / float64(total))
		}
	}

	// Host-side SLB: the host CPU counts and forwards every packet.
	if cfg.Mode == SLBHost {
		r.slbMon = core.NewTrafficMonitor(10 * sim.Microsecond)
		r.slbDir = core.NewTrafficDirector(hostAddr, cfg.SLBFwdThGbps)
		fwdProf := platform.FnProfile{
			Unit:         platform.CPU,
			Servers:      8,
			MaxGbps:      100, // beefy host cores forward at line rate
			OverheadNS:   100,
			JitterMeanNS: 100,
		}
		r.slbFwd = newStation(r.eng, "host-fwd", fwdProf, cfg.RingSize, r.jitter(jitterFwd))
		r.slbFwd.release = r.pool.Put
		r.slbFwd.onServed = func(p *packet.Packet) {
			// Host → eSwitch → SNIC: two more PCIe crossings and a
			// second DPDK receive at the SNIC (§IV).
			r.eng.AtCall(r.eng.Now()+2*platform.PCIeCrossNS, r.toSNICCall, p, 0)
		}
	}

	// SLB blocks: software monitor + director + forwarding cores.
	if cfg.Mode == SLB {
		r.slbMon = core.NewTrafficMonitor(10 * sim.Microsecond)
		r.slbDir = core.NewTrafficDirector(hostAddr, cfg.SLBFwdThGbps)
		fwdProf := platform.FnProfile{
			Unit:         platform.CPU,
			Servers:      cfg.SLBCores,
			MaxGbps:      15 * float64(cfg.SLBCores), // MTU forwarding per A72 core
			OverheadNS:   200,
			JitterMeanNS: 200,
		}
		r.slbFwd = newStation(r.eng, "slb-fwd", fwdProf, cfg.RingSize, r.jitter(jitterFwd))
		r.slbFwd.release = r.pool.Put
		r.slbFwd.onServed = func(p *packet.Packet) {
			// Forwarded over the long path: SNIC memory → eSwitch →
			// PCIe → host (§IV).
			r.eng.AtCall(r.eng.Now()+2*platform.PCIeCrossNS, r.toHostCall, p, 0)
		}
	}

	// Station completion wiring.
	finish := func(side *sideStations, onSNIC bool) {
		last := &side.first
		if side.second != nil {
			second := side.second
			side.first.onServed = func(p *packet.Packet) {
				second.enqueue(p) // a full stage-2 ring tail-drops
			}
			last = side.second
		}
		last.onServed = func(p *packet.Packet) { r.complete(p, onSNIC) }
	}
	finish(&r.snic, true)
	finish(&r.host, false)

	// Observability hooks: every station exists by now, so the tracer can
	// be threaded into each lane.
	r.buildTelemetry()

	r.lat = stats.NewHistogram()
	r.warmupEnd = r.rc.Warmup

	// Phase accumulators: boundaries are [0, marks..., Duration].
	if len(r.rc.PhaseMarks) > 0 {
		bounds := append([]sim.Time{0}, r.rc.PhaseMarks...)
		bounds = append(bounds, r.rc.Duration)
		for i := 0; i+1 < len(bounds); i++ {
			r.phases = append(r.phases, phaseAcc{
				start: bounds[i], end: bounds[i+1], hist: stats.NewHistogram(),
			})
		}
	}

	if r.embedded {
		r.off = new(offered)
	} else {
		r.cli, err = newClient(cfg, r.rc, r.eng, r.pool, fns, r.ingress)
		if err != nil {
			return err
		}
		r.off = &r.cli.offered
	}
	return r.buildFaults()
}

// ingress is the wire→server path. at is the packet's arrival instant;
// with burst coalescing it can lie ahead of the engine clock, so every
// downstream hop is scheduled at an absolute at-relative time.
func (r *run) ingress(p *packet.Packet, at sim.Time) {
	if r.tr.Sampled(p.ID) {
		r.tr.Emit(telemetry.Span{T: at, Kind: telemetry.KindIngress,
			Station: telemetry.StWire, Core: -1, Pkt: p.ID, Arg: int64(p.WireLen)})
	}
	switch r.cfg.Mode {
	case HAL:
		r.eng.AtCall(at+core.IngressLatency, r.halIngressCall, p, 0)
	default:
		r.fwdAt = at
		r.sw.Forward(p)
	}
}

// arriveSNIC handles a packet reaching the SNIC processor's rings.
func (r *run) arriveSNIC(p *packet.Packet) {
	if r.tr.Sampled(p.ID) {
		r.tr.Emit(telemetry.Span{T: r.eng.Now(), Kind: telemetry.KindArrive,
			Station: telemetry.StSNIC, Core: -1, Pkt: p.ID})
	}
	if r.cfg.Mode == SLB {
		// The SNIC CPU sees every packet first; SLB decides in software.
		r.slbMon.Observe(p)
		if r.slbDir.Route(p) {
			r.slbFwd.enqueue(p)
			return
		}
	}
	r.snic.first.enqueue(p)
}

// arriveHost handles a packet reaching the host's rings.
func (r *run) arriveHost(p *packet.Packet) {
	if r.tr.Sampled(p.ID) {
		r.tr.Emit(telemetry.Span{T: r.eng.Now(), Kind: telemetry.KindArrive,
			Station: telemetry.StHost, Core: -1, Pkt: p.ID})
	}
	if r.cfg.Mode == SLBHost {
		// The host CPU sees every packet; its SLB keeps the excess
		// (Rate_Fwd) and relays the SNIC's share (up to Fwd_Th) over
		// the long path.
		r.slbMon.Observe(p)
		if r.slbDir.Route(p) {
			r.host.first.enqueue(p)
			return
		}
		r.slbFwd.enqueue(p)
		return
	}
	r.host.first.enqueue(p)
}

// complete fires when the (last) function finishes a packet. It accrues the
// delivery counters and schedules the response's egress, where the merger
// and wire delivery run.
func (r *run) complete(p *packet.Packet, onSNIC bool) {
	if r.cfg.Functional {
		// Really execute the function(s): a mix-tagged packet carries the
		// mix function's request, and the first stage's output feeds the
		// second, as in the paper's pipelined scenario (§VII-B).
		fn := r.fn
		if p.FnTag == 1 && r.mix != nil {
			fn = r.mix
		}
		out, err := fn.Process(p.Payload)
		if err != nil {
			r.funcErrs++
		} else if r.fn2 != nil {
			if _, err := r.fn2.Process(reframe(out, r.cfg.Pipeline)); err != nil {
				r.funcErrs++
			}
		}
	}
	r.completed++
	r.rateWinB += int64(p.WireLen)
	if ph := r.phaseAt(sim.Time(p.CreatedAt)); ph != nil {
		ph.bytes += uint64(p.WireLen)
		ph.completed++
	}
	if sim.Time(p.CreatedAt) >= r.warmupEnd {
		r.deliveredB += uint64(p.WireLen)
		r.winB += int64(p.WireLen)
		if onSNIC {
			r.snicB += uint64(p.WireLen)
		}
	}
	// Response: src is the processing side; the merger fixes host
	// responses up before the wire. The request's payload buffer rides
	// along empty — in an embedded server that carries the buffer back to
	// the ingress pool that allocated it (requests flow ingress->server,
	// responses server->ingress; without the ride-along every buffer
	// strands in a server-side pool and the ingress allocates a fresh one
	// per request). WireLen stays the explicit 128 below: reset clamps a
	// zero-length payload to the 64-byte minimum frame either way.
	buf := p.Payload
	p.Payload = nil
	if buf != nil {
		buf = buf[:0]
	}
	resp := r.pool.Get(snicAddr, clientAddr, 9000, uint16(4000+p.ID%1000), buf)
	if !onSNIC {
		resp.SrcIP, resp.SrcMAC = hostAddr.IP, hostAddr.MAC
	}
	resp.ID = p.ID
	resp.CreatedAt = p.CreatedAt
	resp.WireLen = 128
	resp.ReqLen = int32(p.WireLen)
	// The request struct is fully consumed; recycle it for a future
	// arrival.
	r.pool.Put(p)
	egress := sim.Time(200) // serialization toward the wire
	if !onSNIC {
		egress += platform.PCIeCrossNS
	}
	if r.cfg.Mode == HAL {
		egress += core.EgressLatency
		if !onSNIC && r.tr.Sampled(resp.ID) {
			r.tr.Emit(telemetry.Span{T: r.eng.Now(), Kind: telemetry.KindMerge,
				Station: telemetry.StHLB, Core: -1, Pkt: resp.ID})
		}
	}
	r.eng.AtCall(r.eng.Now()+egress, r.forwardCall, resp, 0)
}

// deliverResponse records the client-observed round trip for packets
// created inside the measurement window.
func (r *run) deliverResponse(p *packet.Packet) {
	rtt := int64(r.eng.Now()) - p.CreatedAt
	if ph := r.phaseAt(sim.Time(p.CreatedAt)); ph != nil {
		ph.hist.Record(rtt)
	}
	if sim.Time(p.CreatedAt) >= r.warmupEnd {
		r.lat.Record(rtt)
	}
	if r.tl != nil {
		r.tl.RecordLatency(rtt)
	}
	if r.tr.Sampled(p.ID) {
		r.tr.Emit(telemetry.Span{T: r.eng.Now(), Kind: telemetry.KindResponse,
			Station: telemetry.StWire, Core: -1, Pkt: p.ID, Arg: rtt})
	}
	r.pool.Put(p)
}

// every wraps Engine.Every so a drained run can cancel every periodic
// process once the client stops.
func (r *run) every(period sim.Time, fn func()) {
	r.tickers = append(r.tickers, r.eng.Every(period, fn))
}

func (r *run) start() {
	cfg := r.cfg
	// Periodic processes.
	if cfg.Mode == HAL {
		// During a telemetry blackout the monitor core is wedged: rate
		// windows do not roll (the LBP's stale-telemetry watchdog sees the
		// roll counter stop) and the occupancy freezer replays old readings.
		r.every(r.hal.Cfg.MonitorPeriod, func() {
			if !r.telemetryDown {
				r.hal.RollMonitor()
			}
		})
		r.every(r.hal.Cfg.LBPPeriod, r.hal.Policy.Tick)
		// SNIC_TP accounting: completions on the SNIC side.
		prev := r.snic.first.onServed
		r.snic.first.onServed = func(p *packet.Packet) {
			r.hal.Policy.OnSNICBurst(p.WireLen)
			prev(p)
		}
	}
	if cfg.Mode == SLB || cfg.Mode == SLBHost {
		r.every(10*sim.Microsecond, func() {
			r.slbDir.SetRate(r.slbMon.Roll())
		})
	}
	// Power sampling (§VI: periodic wall-power sampling).
	const powerPeriod = 100 * sim.Microsecond
	r.every(powerPeriod, func() {
		snicBytes := r.snic.first.takeWindowBytes()
		if r.snic.second != nil {
			// stage 2 re-serves the same bytes; count stage 1 only
			r.snic.second.takeWindowBytes()
		}
		hostBytes := r.host.first.takeWindowBytes()
		if r.host.second != nil {
			r.host.second.takeWindowBytes()
		}
		if r.slbFwd != nil {
			r.slbFwd.takeWindowBytes() // forwarding shows up at host completion
		}
		snicGbps := float64(snicBytes) * 8 / float64(powerPeriod)
		hostGbps := float64(hostBytes) * 8 / float64(powerPeriod)
		util := float64(r.snic.first.busyCores()) / float64(len(r.snic.first.cores))
		hostAwake := true
		switch cfg.Mode {
		case SNICOnly:
			hostAwake = false
		case HAL:
			if r.hostSleep != nil {
				// The sampler doubles as the idle observer: a host
				// side with empty rings and no busy cores counts as
				// idle even if no core ever polled (no traffic yet).
				if r.host.first.port.TotalBacklog() == 0 && !r.host.first.anyBusy() {
					r.hostSleep.OnIdle(r.eng.Now())
				}
				hostAwake = !r.hostSleep.Asleep()
			}
		}
		snicActive := util
		if cfg.Mode == HostOnly {
			snicActive = 0
		}
		idleW, hostW, snicW := cfg.SNIC.Power.Breakdown(hostAwake, hostGbps, snicGbps, snicActive)
		now := r.eng.Now()
		r.power.Sample(now, idleW+hostW+snicW)
		r.powerHost.Sample(now, hostW)
		r.powerSNIC.Sample(now, snicW)
		if ph := r.phaseAt(now); ph != nil {
			ph.powerWSum += idleW + hostW + snicW
			ph.powerN++
		}
	})
	// Telemetry sampling tick. Registered after the power ticker so a
	// same-instant sample reads the power integrators' fresh values (the
	// engine runs same-time events in registration order).
	if r.col != nil {
		r.every(r.telPeriod, r.sampleTelemetry)
	}
	// Delivered-rate time series (recovery analysis for fault runs).
	if r.rc.RateWindow > 0 {
		r.every(r.rc.RateWindow, func() {
			r.rateSeries = append(r.rateSeries,
				float64(r.rateWinB)*8/float64(r.rc.RateWindow))
			r.rateWinB = 0
		})
	}
	// Delivered-rate windows for MaxGbps. Constant-rate runs use 10 ms;
	// trace runs use the epoch so a one-epoch burst registers at its
	// actual rate instead of being averaged away — this is what makes
	// "max throughput" differ between a ~90G host and a ~100G HAL.
	window := 10 * sim.Millisecond
	if r.rc.Workload != nil {
		window = TraceEpoch
	}
	r.every(window, func() {
		winB := r.winB
		r.winB = 0
		if r.eng.Now() <= r.warmupEnd {
			return
		}
		g := float64(winB) * 8 / float64(window)
		if g > r.winMaxGbps {
			r.winMaxGbps = g
		}
	})
	if !r.embedded {
		r.cli.start()
	}
}

func (r *run) collect() Result {
	measured := r.rc.Duration - r.warmupEnd
	res := Result{
		Mode:      r.cfg.Mode,
		Fn:        r.cfg.Fn,
		Completed: r.lat.Count(),
		Sent:      r.off.sentPkts,
		Engine:    "serial",
	}
	if measured > 0 {
		res.AvgGbps = float64(r.deliveredB) * 8 / float64(measured)
	}
	res.MaxGbps = r.winMaxGbps
	if res.MaxGbps < res.AvgGbps {
		res.MaxGbps = res.AvgGbps
	}
	if measured > 0 {
		res.OfferedGbps = float64(r.off.sentBytes) * 8 / float64(measured)
	}
	res.P50us = float64(r.lat.P50()) / 1000
	res.P99us = float64(r.lat.P99()) / 1000
	res.P999us = float64(r.lat.P999()) / 1000
	res.AvgPowerW = r.power.AvgWatts()
	res.HostActiveW = r.powerHost.AvgWatts()
	res.SNICActiveW = r.powerSNIC.AvgWatts()
	res.IdleW = res.AvgPowerW - res.HostActiveW - res.SNICActiveW
	res.EffGbpsPerW = energy.EfficiencyGbpsPerWatt(res.AvgGbps, res.AvgPowerW)
	var drops, faultDrops, requeued, crashes uint64
	for _, s := range r.stations() {
		drops += s.port.TotalDrops()
		faultDrops += s.port.TotalFaultDrops() + s.faultDrops
		requeued += s.requeued
		crashes += s.crashes
	}
	if r.off.sentPkts > 0 {
		res.DropFraction = float64(drops+faultDrops) / float64(r.off.sentPkts)
	}
	if r.deliveredB > 0 {
		res.SNICShare = float64(r.snicB) / float64(r.deliveredB)
	}
	if r.hostSleep != nil {
		res.Wakeups = r.hostSleep.Wakeups
	}
	if r.cfg.Mode == HAL {
		res.FinalFwdTh = r.hal.Director.FwdTh()
		res.LBPAdjustments = r.hal.Policy.Adjustments
	}
	res.FuncErrors = r.funcErrs
	res.SNICUtil = r.snic.first.utilization(r.rc.Duration)
	res.HostUtil = r.host.first.utilization(r.rc.Duration)
	if r.fab != nil {
		st := r.fab.Directory().TotalStats()
		res.CoherenceRemote = st.RemoteFetches + st.Invalidations
	}

	// Packet-conservation ledger (all-time, warmup included): every offered
	// packet either completed, dropped, or is still queued/in service. A
	// drained run closes the ledger exactly (InFlightEnd == 0).
	res.SentAll = r.off.totalPkts
	res.CompletedAll = r.completed
	res.DroppedAll = drops + faultDrops
	res.InFlightEnd = int64(res.SentAll) - int64(res.CompletedAll) - int64(res.DroppedAll)
	res.FaultDrops = faultDrops
	res.Requeued = requeued
	res.CoreCrashes = crashes
	if r.inj != nil {
		res.FaultEvents = r.inj.Injected
	}
	res.FailoverTicks = -1
	if r.cfg.Mode == HAL {
		res.LBPHolds = r.hal.Policy.Holds
		res.FailoverTicks = r.hal.Policy.LastFailoverTicks
	}
	for _, ph := range r.phases {
		ps := PhaseStats{
			Start:     ph.start,
			End:       ph.end,
			P99us:     float64(ph.hist.P99()) / 1000,
			Completed: ph.completed,
		}
		if d := ph.end - ph.start; d > 0 {
			ps.AvgGbps = float64(ph.bytes) * 8 / float64(d)
		}
		if ph.powerN > 0 {
			ps.AvgPowerW = ph.powerWSum / float64(ph.powerN)
		}
		ps.EffGbpsPerW = energy.EfficiencyGbpsPerWatt(ps.AvgGbps, ps.AvgPowerW)
		res.Phases = append(res.Phases, ps)
	}
	res.RateSeries = r.rateSeries
	res.RateWindow = r.rc.RateWindow

	if r.col != nil {
		res.Timeline = r.tl
		res.Trace = r.tr
		res.Metrics = r.col.Registry
		// Final sample so the registry's counters reflect the whole run
		// (including a trailing partial tick or a drain phase).
		r.sampleTelemetry()
	}
	return res
}

// stations returns every wired station of the run.
func (r *run) stations() []*station {
	out := []*station{&r.snic.first, &r.host.first}
	if r.snic.second != nil {
		out = append(out, r.snic.second)
	}
	if r.host.second != nil {
		out = append(out, r.host.second)
	}
	if r.slbFwd != nil {
		out = append(out, r.slbFwd)
	}
	return out
}
