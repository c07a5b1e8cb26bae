// Package core implements HAL, the paper's primary contribution: a
// Hardware-Assisted Load balancer for SNIC-host cooperative computing. It
// comprises the three FPGA dataplane blocks of §V-A — traffic monitor,
// traffic director, and traffic merger — and the load balancing policy
// (LBP, Algorithm 1) that runs on one SNIC CPU core.
//
// The dataplane blocks operate on real packets: the director rewrites
// destination addresses so the eSwitch routes excess traffic to the host, and the merger rewrites source
// addresses of host responses so clients only ever see the SNIC identity.
package core

import (
	"fmt"

	"halsim/internal/packet"
	"halsim/internal/sim"
)

// Gbps converts a byte count and a window to Gbps.
func gbps(bytes int64, window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(bytes) * 8 / float64(window)
}

// Config collects HAL's tunables with the paper's defaults.
type Config struct {
	// SNICAddr is the identity advertised to clients; HostAddr is the
	// hidden identity of the host processor (§V-A).
	SNICAddr packet.Addr
	HostAddr packet.Addr

	// MonitorPeriod is the traffic monitor's sampling window (the paper
	// checks ReceivedBytes every ~10 µs).
	MonitorPeriod sim.Time
	// LBPPeriod is how often Algorithm 1 runs.
	LBPPeriod sim.Time

	// InitialFwdThGbps seeds the forwarding threshold.
	InitialFwdThGbps float64
	// MaxFwdThGbps clamps the threshold (the line rate).
	MaxFwdThGbps float64
	// StepThGbps is Algorithm 1's Step_Th.
	StepThGbps float64
	// DeltaTPGbps is Algorithm 1's Delta_TP.
	DeltaTPGbps float64
	// WMLow and WMHigh are the Rx-occupancy watermarks.
	WMLow  int
	WMHigh int
	// AdaptiveStep enables the §V-B optimization: Step_Th grows while
	// the occupancy signal keeps pushing in the same direction and
	// resets on reversal, converging faster to the right threshold.
	AdaptiveStep bool
	// Frozen disables the policy entirely: Fwd_Th stays at
	// InitialFwdThGbps. This models the paper's alternative of
	// profiling a function offline and pinning the threshold (§V-B) —
	// and is the baseline the LBP ablation compares against.
	Frozen bool

	// StaleTicks arms the telemetry watchdog: after this many LBP ticks
	// without a fresh traffic-monitor window the policy holds Fwd_Th
	// instead of acting on stale occupancy/rate readings. 0 disables the
	// watchdog.
	StaleTicks int
	// FailoverTicks bounds the capacity-loss failover: when the SNIC
	// loses cores, Fwd_Th is snapped down to the surviving capacity's
	// share within at most this many ticks, so diverted traffic fails
	// over to the host within FailoverTicks·LBPPeriod. 0 snaps on the
	// next tick.
	FailoverTicks int
}

// DefaultConfig returns the configuration used by the evaluation.
func DefaultConfig(snic, host packet.Addr) Config {
	return Config{
		SNICAddr:         snic,
		HostAddr:         host,
		MonitorPeriod:    10 * sim.Microsecond,
		LBPPeriod:        100 * sim.Microsecond,
		InitialFwdThGbps: 10,
		MaxFwdThGbps:     100,
		StepThGbps:       1,
		DeltaTPGbps:      2,
		WMLow:            2,
		WMHigh:           16,
		StaleTicks:       3,
		FailoverTicks:    2,
	}
}

func (c Config) validate() error {
	if c.MonitorPeriod <= 0 || c.LBPPeriod <= 0 {
		return fmt.Errorf("core: non-positive period")
	}
	if c.StepThGbps <= 0 || c.MaxFwdThGbps <= 0 {
		return fmt.Errorf("core: non-positive threshold parameters")
	}
	if c.WMLow >= c.WMHigh {
		return fmt.Errorf("core: WMLow %d must be below WMHigh %d", c.WMLow, c.WMHigh)
	}
	if c.StaleTicks < 0 || c.FailoverTicks < 0 {
		return fmt.Errorf("core: negative watchdog tick counts")
	}
	return nil
}

// TrafficMonitor is HLB block ① : like the paper's traffic monitor, it
// counts received bytes in the open window and reports the arrival rate
// once per window.
type TrafficMonitor struct {
	window   sim.Time
	bytes    int64 // accumulating in the open window
	rateGbps float64
	// Rolls counts closed windows (the freshness signal the LBP watchdog
	// consumes).
	Rolls uint64
}

// NewTrafficMonitor returns a monitor with the given window.
func NewTrafficMonitor(window sim.Time) TrafficMonitor {
	if window <= 0 {
		panic("core: non-positive traffic monitor window")
	}
	return TrafficMonitor{window: window}
}

// Observe records one received packet.
func (m *TrafficMonitor) Observe(p *packet.Packet) { m.bytes += int64(p.WireLen) }

// Roll closes the window and updates RateRx. Call once per MonitorPeriod.
func (m *TrafficMonitor) Roll() float64 {
	bytesPerSec := float64(m.bytes) / (float64(m.window) / 1e9)
	m.bytes = 0
	m.rateGbps = bytesPerSec * 8 / 1e9
	m.Rolls++
	return m.rateGbps
}

// RateGbps returns the last closed window's arrival rate.
func (m *TrafficMonitor) RateGbps() float64 { return m.rateGbps }

// TrafficDirector is HLB block ② : it compares Rate_Rx against Fwd_Th and,
// when the threshold is exceeded, rewrites the destination of a
// deficit-weighted share of packets to the host identity so the eSwitch
// forwards them to the host processor at Rate_Fwd = Rate_Rx − Fwd_Th.
type TrafficDirector struct {
	hostAddr packet.Addr
	// divert and keepFrac cache what Route reads of the two rates —
	// whether the rate exceeds the threshold, and threshold / rate — so
	// a packet costs no division. Only SetFwdTh and SetRate write the
	// rates; both refresh the cache. divert sits in hostAddr's padding.
	divert    bool
	fwdThGbps float64
	rateGbps  float64
	credit    float64
	keepFrac  float64
}

// NewTrafficDirector returns a director diverting to hostAddr.
func NewTrafficDirector(hostAddr packet.Addr, initialFwdTh float64) TrafficDirector {
	d := TrafficDirector{hostAddr: hostAddr}
	d.SetFwdTh(initialFwdTh)
	return d
}

// refresh recomputes Route's cached divert decision and keep fraction.
func (d *TrafficDirector) refresh() {
	d.divert = !(d.rateGbps <= d.fwdThGbps)
	d.keepFrac = 0
	if d.divert {
		d.keepFrac = d.fwdThGbps / d.rateGbps
	}
}

// SetFwdTh installs the threshold (LBP's output).
func (d *TrafficDirector) SetFwdTh(gbps float64) {
	d.fwdThGbps = gbps
	d.refresh()
}

// FwdTh returns the active threshold.
func (d *TrafficDirector) FwdTh() float64 { return d.fwdThGbps }

// SetRate installs the monitor's latest Rate_Rx.
func (d *TrafficDirector) SetRate(gbps float64) {
	d.rateGbps = gbps
	d.refresh()
}

// RateGbps returns the installed Rate_Rx.
func (d *TrafficDirector) RateGbps() float64 { return d.rateGbps }

// RateFwdGbps returns the current forwarding rate Rate_Fwd = max(0,
// Rate_Rx − Fwd_Th) — the paper's Fig. 9 companion signal to Fwd_Th, read
// by the telemetry timeline once per sample tick.
func (d *TrafficDirector) RateFwdGbps() float64 {
	if d.rateGbps <= d.fwdThGbps {
		return 0
	}
	return d.rateGbps - d.fwdThGbps
}

// Route decides one packet. When it diverts, it rewrites the packet's
// destination MAC and IP in place; the eSwitch then routes it to the host
// port by address.
func (d *TrafficDirector) Route(p *packet.Packet) (diverted bool) {
	if !d.divert {
		return false
	}
	wire := float64(p.WireLen)
	d.credit += d.keepFrac * wire
	if d.credit >= wire {
		d.credit -= wire
		return false
	}
	p.RewriteDst(d.hostAddr)
	return true
}

// TrafficMerger is HLB block ③ : it intercepts packets the host processor
// sends toward clients and rewrites their source to the SNIC identity so
// responses appear to come from the single address clients know.
type TrafficMerger struct {
	snicAddr packet.Addr
	hostAddr packet.Addr
}

// NewTrafficMerger returns a merger masquerading hostAddr as snicAddr.
func NewTrafficMerger(snic, host packet.Addr) TrafficMerger {
	return TrafficMerger{snicAddr: snic, hostAddr: host}
}

// Egress processes one outbound packet in place.
func (m *TrafficMerger) Egress(p *packet.Packet) {
	if p.Src.IP == m.hostAddr.IP || p.Src.MAC == m.hostAddr.MAC {
		p.RewriteSrc(m.snicAddr)
	}
}

// QueueObserver reports the maximum DPDK Rx-queue occupancy across the
// SNIC CPU cores — LBP's rte_eth_rx_queue_count loop.
type QueueObserver interface {
	MaxOccupancy() int
}

// LBP is Algorithm 1: the greedy watermark policy that tracks the SNIC
// processor's sustainable throughput at run time.
type LBP struct {
	// snicBytes accumulates bytes the SNIC processor consumed via
	// rte_eth_rx_burst since the last tick (SNIC_TP's estimator). It is
	// the one field every SNIC completion writes, so it leads, next to
	// the merger in a HAL's block.
	snicBytes int64
	snicTP    float64

	cfg      Config
	director *TrafficDirector
	queues   QueueObserver

	step    float64
	lastDir int // +1 raised, -1 lowered, 0 held (for AdaptiveStep)
	// Adjustments counts threshold changes; Ticks counts policy runs.
	Adjustments uint64
	Ticks       uint64

	// Telemetry watchdog: updates points at the monitor's roll count; a
	// streak of unchanged readings longer than StaleTicks makes the
	// policy hold Fwd_Th rather than chase stale signals.
	updates     *uint64
	haveUpdates bool
	lastUpdates uint64
	staleStreak int
	// Holds counts ticks the watchdog suppressed.
	Holds uint64

	// Capacity-loss failover: on a crash notification Fwd_Th is walked
	// down to snapTarget within FailoverTicks ticks.
	aliveFrac  float64
	snapActive bool
	snapTarget float64
	snapTicks  int
	// FailoverEvents counts capacity-loss snaps started;
	// LastFailoverTicks is how many ticks the latest one took (-1 when
	// none has completed).
	FailoverEvents    uint64
	LastFailoverTicks int
}

// NewLBP builds the policy. The director's threshold is seeded from cfg.
func NewLBP(cfg Config, director *TrafficDirector, queues QueueObserver) (LBP, error) {
	if err := cfg.validate(); err != nil {
		return LBP{}, err
	}
	director.SetFwdTh(cfg.InitialFwdThGbps)
	return LBP{
		cfg: cfg, director: director, queues: queues, step: cfg.StepThGbps,
		aliveFrac: 1, LastFailoverTicks: -1,
	}, nil
}

// BindTelemetry connects the watchdog to a freshness counter (typically
// the traffic monitor's roll count), which it reads at every tick. Without
// a binding the watchdog is inert.
func (l *LBP) BindTelemetry(updates *uint64) { l.updates = updates }

// OnCapacityChange tells the policy the SNIC processor's execution
// capacity changed: frac is the fraction of cores still alive. A loss arms
// the bounded failover snap — Fwd_Th walks down to its capacity-scaled
// share within FailoverTicks ticks so the diverted excess lands on the
// host. A recovery cancels any pending snap and lets the normal policy
// climb back.
func (l *LBP) OnCapacityChange(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if frac < l.aliveFrac {
		l.snapTarget = l.director.FwdTh() * frac
		l.snapActive = true
		l.snapTicks = 0
		l.FailoverEvents++
	} else if frac > l.aliveFrac {
		l.snapActive = false
	}
	l.aliveFrac = frac
}

// staleLimit is the tick count after which unchanged telemetry means a
// blackout rather than a coarse monitor window.
func (l *LBP) staleLimit() int {
	perWindow := int((l.cfg.MonitorPeriod + l.cfg.LBPPeriod - 1) / l.cfg.LBPPeriod)
	if perWindow < 1 {
		perWindow = 1
	}
	return l.cfg.StaleTicks * perWindow
}

// OnSNICBurst accounts bytes returned by the SNIC's rte_eth_rx_burst calls.
func (l *LBP) OnSNICBurst(bytes int) { l.snicBytes += int64(bytes) }

// SNICTPGbps returns the last tick's SNIC throughput estimate.
func (l *LBP) SNICTPGbps() float64 { return l.snicTP }

// Tick runs one iteration of Algorithm 1 plus the resilience extensions:
// the capacity-loss failover snap and the stale-telemetry hold. Call every
// LBPPeriod.
func (l *LBP) Tick() {
	l.Ticks++
	l.snicTP = gbps(l.snicBytes, l.cfg.LBPPeriod)
	l.snicBytes = 0
	if l.cfg.Frozen {
		return
	}

	// Capacity-loss failover: walk Fwd_Th down to the surviving
	// capacity's share in at most FailoverTicks ticks. This runs before
	// the watchdog hold — the crash notification is direct, not
	// telemetry, so a simultaneous blackout must not delay failover.
	if l.snapActive {
		l.snapTicks++
		cur := l.director.FwdTh()
		if cur <= l.snapTarget {
			l.snapActive = false
			l.LastFailoverTicks = l.snapTicks
		} else {
			th := l.snapTarget
			if rem := l.cfg.FailoverTicks - l.snapTicks; rem > 0 {
				th = cur - (cur-l.snapTarget)/float64(rem+1)
			}
			if th < 0 {
				th = 0
			}
			if th != cur {
				l.Adjustments++
			}
			l.director.SetFwdTh(th)
			l.lastDir = -1
			l.step = l.cfg.StepThGbps
			if th <= l.snapTarget {
				l.snapActive = false
				l.LastFailoverTicks = l.snapTicks
			}
			return
		}
	}

	// Telemetry watchdog: with no fresh monitor window in StaleTicks
	// expected window intervals, occupancy and rate readings are stale —
	// hold the threshold instead of chasing garbage. The limit scales
	// with MonitorPeriod/LBPPeriod so a monitor window coarser than the
	// tick does not read as a blackout.
	if l.updates != nil && l.cfg.StaleTicks > 0 {
		u := *l.updates
		if l.haveUpdates && u == l.lastUpdates {
			l.staleStreak++
		} else {
			l.staleStreak = 0
		}
		l.haveUpdates = true
		l.lastUpdates = u
		if l.staleStreak >= l.staleLimit() {
			l.Holds++
			return
		}
	}

	fwdTh := l.director.FwdTh()
	occ := l.queues.MaxOccupancy()
	// Overload escape (the §V-B "further optimize" clause): when the
	// threshold has overshot past what the SNIC actually sustains and
	// its queues are saturated, snap the threshold to just under the
	// measured throughput. Without this, a large overshoot strands
	// Fwd_Th above SNIC_TP+Delta_TP where line 2 never fires again, and
	// step-wise decreases spiral into deep undershoot while the queues
	// drain.
	if occ > l.cfg.WMHigh && fwdTh > l.snicTP+l.cfg.DeltaTPGbps {
		th := l.snicTP - l.cfg.StepThGbps
		if th < 0 {
			th = 0
		}
		if th != fwdTh {
			l.Adjustments++
		}
		l.director.SetFwdTh(th)
		l.lastDir = -1
		l.step = l.cfg.StepThGbps
		return
	}
	// Line 2: only react when the threshold is binding — the SNIC is
	// processing close to (or beyond) the allowance.
	if fwdTh >= l.snicTP+l.cfg.DeltaTPGbps {
		l.lastDir = 0
		l.step = l.cfg.StepThGbps
		return
	}
	switch {
	case occ < l.cfg.WMLow:
		// Underutilized: admit more to the SNIC.
		l.bump(+1)
	case occ > l.cfg.WMHigh:
		// Overutilized: shed load to the host.
		l.bump(-1)
	default:
		l.lastDir = 0
		l.step = l.cfg.StepThGbps
	}
}

func (l *LBP) bump(dir int) {
	if l.cfg.AdaptiveStep && dir > 0 {
		// Raises accelerate while the signal keeps pushing up; lowering
		// always moves by the base step (queues drain slowly, so fast
		// down-steps overreact to stale occupancy).
		if dir == l.lastDir {
			l.step *= 2
			if l.step > l.cfg.MaxFwdThGbps/4 {
				l.step = l.cfg.MaxFwdThGbps / 4
			}
		} else {
			l.step = l.cfg.StepThGbps
		}
	} else {
		l.step = l.cfg.StepThGbps
	}
	th := l.director.FwdTh() + float64(dir)*l.step
	if l.cfg.AdaptiveStep && dir > 0 {
		// An accelerated raise must not strand the threshold beyond the
		// region where the binding check keeps working.
		if cap := l.snicTP + l.cfg.DeltaTPGbps + l.step; th > cap {
			th = cap
		}
	}
	if th < 0 {
		th = 0
	}
	if th > l.cfg.MaxFwdThGbps {
		th = l.cfg.MaxFwdThGbps
	}
	if th != l.director.FwdTh() {
		l.Adjustments++
	}
	l.director.SetFwdTh(th)
	l.lastDir = dir
}

// HAL bundles the four components plus the dataplane latency cost of the
// FPGA implementation (§VII-C: ~800 ns added round trip, 45% of which is
// the transceiver+MAC pair). The components are values, so the monitor and
// director a packet passes through sit in the HAL's own block, and a HAL
// embedded in its server sits in the server's.
type HAL struct {
	Monitor  TrafficMonitor
	Director TrafficDirector
	Merger   TrafficMerger
	Policy   LBP
	Cfg      Config
}

// Init assembles h in place over the given queue observer. The policy
// points at h's director and its watchdog reads h's monitor, so an
// initialized HAL must not be copied.
func (h *HAL) Init(cfg Config, queues QueueObserver) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	*h = HAL{
		Monitor:  NewTrafficMonitor(cfg.MonitorPeriod),
		Director: NewTrafficDirector(cfg.HostAddr, cfg.InitialFwdThGbps),
		Merger:   NewTrafficMerger(cfg.SNICAddr, cfg.HostAddr),
		Cfg:      cfg,
	}
	lbp, err := NewLBP(cfg, &h.Director, queues)
	if err != nil {
		return err
	}
	h.Policy = lbp
	h.Policy.BindTelemetry(&h.Monitor.Rolls)
	return nil
}

// IngressLatency is the one-way dataplane latency the HLB adds on the
// request path; EgressLatency the merger's on the response path. Their sum
// is the paper's ~800 ns RTT adder.
const (
	IngressLatency = 500 * sim.Nanosecond
	EgressLatency  = 300 * sim.Nanosecond
)

// Ingress processes one received packet through monitor and director,
// returning whether it was diverted to the host.
func (h *HAL) Ingress(p *packet.Packet) bool {
	h.Monitor.Observe(p)
	return h.Director.Route(p)
}

// RollMonitor closes a monitor window and feeds Rate_Rx to the director.
// Call every MonitorPeriod.
func (h *HAL) RollMonitor() {
	h.Director.SetRate(h.Monitor.Roll())
}

// Egress processes one outbound packet through the merger.
func (h *HAL) Egress(p *packet.Packet) { h.Merger.Egress(p) }
