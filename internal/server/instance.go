package server

import (
	"fmt"

	"halsim/internal/packet"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
)

// Fleet-scale embedding: a cluster run instantiates N complete servers —
// each the full SNIC+host pipeline of this package, faults and HLB
// included — on engines the cluster owns. Every server in a group shares
// that group's engine and packet pool, so one group is one logical process
// and the conservative-parallel executor partitions the fleet along fabric
// links.

// ClusterConfig asks for a fleet of Servers identical servers behind one
// shared ingress. It is pure data so Config can carry it without the
// server package depending on the cluster runner.
type ClusterConfig struct {
	// Servers is the fleet size (1..4096).
	Servers int
	// Dispatch picks the ingress dispatch policy: "rr" (round-robin,
	// the default), "p2c" (power-of-two-choices over in-flight counts)
	// or "least-conn" (argmin over in-flight counts, lowest index wins
	// ties).
	Dispatch string
	// WireNS is the one-way ToR wire+switch latency between the ingress
	// (or, with pods, the pod's ToR) and any server. Defaults to 2µs. It
	// is also the fleet's lookahead: every cross-LP message travels at
	// least one wire.
	WireNS sim.Time
	// LinkGbps is the per-server link bandwidth used for serialization
	// delay on both directions. Defaults to 100.
	LinkGbps float64
	// Pods splits the fleet into contiguous pods behind ToR uplinks
	// (two-tier pod/ToR/spine fabric). 0 or 1 keeps the flat star.
	Pods int
	// Oversub is the pod uplink oversubscription ratio: each pod's
	// uplink carries (servers-per-pod × LinkGbps) / Oversub. Defaults
	// to 1 (non-blocking). Only meaningful with Pods >= 2.
	Oversub float64
	// SpineWireNS is the one-way spine wire+switch latency between the
	// ingress and any pod ToR. Defaults to WireNS. Only meaningful with
	// Pods >= 2.
	SpineWireNS sim.Time
	// Crashes schedules whole-server blackouts: for the window [At,
	// At+For) every packet reaching server Server's rings — either side
	// — is dropped, as if the NIC lost link. The server's own clock,
	// policies, and power model keep running.
	Crashes []ServerCrash
}

// ServerCrash is one timed whole-server blackout.
type ServerCrash struct {
	Server  int
	At, For sim.Time
}

// WithDefaults validates the cluster config against a run of duration d
// and fills defaults.
func (c ClusterConfig) WithDefaults(d sim.Time) (ClusterConfig, error) {
	if c.Servers < 1 || c.Servers > 4096 {
		return c, fmt.Errorf("cluster: %d servers outside 1..4096", c.Servers)
	}
	switch c.Dispatch {
	case "":
		c.Dispatch = "rr"
	case "rr", "p2c", "least-conn":
	default:
		return c, fmt.Errorf("cluster: unknown dispatch policy %q (want rr, p2c or least-conn)", c.Dispatch)
	}
	if c.WireNS == 0 {
		c.WireNS = 2 * sim.Microsecond
	}
	if c.WireNS < 0 {
		return c, fmt.Errorf("cluster: negative wire latency")
	}
	if c.LinkGbps == 0 {
		c.LinkGbps = 100
	}
	if c.LinkGbps < 0 {
		return c, fmt.Errorf("cluster: negative link bandwidth")
	}
	if c.Pods == 0 {
		c.Pods = 1
	}
	if c.Pods < 1 || c.Pods > c.Servers {
		return c, fmt.Errorf("cluster: %d pods outside 1..servers (%d)", c.Pods, c.Servers)
	}
	if c.Oversub == 0 {
		c.Oversub = 1
	}
	if c.Oversub < 0 {
		return c, fmt.Errorf("cluster: negative oversubscription ratio")
	}
	if c.SpineWireNS == 0 {
		c.SpineWireNS = c.WireNS
	}
	if c.SpineWireNS < 0 {
		return c, fmt.Errorf("cluster: negative spine wire latency")
	}
	for _, cr := range c.Crashes {
		if cr.Server < 0 || cr.Server >= c.Servers {
			return c, fmt.Errorf("cluster: crash of server %d outside fleet of %d", cr.Server, c.Servers)
		}
		if cr.At < 0 || cr.For <= 0 || cr.At+cr.For > d {
			return c, fmt.Errorf("cluster: crash window [%v, %v+%v) outside run of %v", cr.At, cr.At, cr.For, d)
		}
	}
	return c, nil
}

// Instance is one embedded server of a cluster run: built, started and
// collected by the cluster, fed by the shared ingress instead of its own
// client.
type Instance struct {
	r *run
}

// NewInstance builds server index of a fleet on the injected engine and
// pool without starting traffic. The index, with cfg.Seed, keys the
// server's random streams. respond, when non-nil, receives every
// wire-bound response at its egress instant in place of the local latency
// recorder; the caller carries it back over the fabric. The Config must not ask for
// shards or telemetry of its own — the cluster owns both.
func NewInstance(cfg Config, rc RunConfig, index int, eng *sim.Engine, pool *packet.Pool, respond func(*packet.Packet)) (*Instance, error) {
	if cfg.Cluster != nil {
		return nil, fmt.Errorf("server: embedded instance with nested Cluster config")
	}
	cfg.Shards = 0
	cfg.Telemetry = telemetry.Config{}
	if err := prepare(&cfg, &rc); err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, rc: rc, index: index, eng: eng, pool: pool, embedded: true, respond: respond}
	if err := r.build(); err != nil {
		return nil, err
	}
	return &Instance{r: r}, nil
}

// Start registers the server's periodic processes (policy ticks, power
// sampling, throughput windows) on its engine. An embedded server has no
// client; traffic arrives through Ingress.
func (s *Instance) Start() { s.r.start() }

// Ingress delivers one request packet at its wire-arrival instant, which
// must not lie before the engine clock.
func (s *Instance) Ingress(p *packet.Packet, at sim.Time) { s.r.ingress(p, at) }

// CancelTickers stops every periodic process, letting a drained run's
// event queue empty.
func (s *Instance) CancelTickers() {
	for _, t := range s.r.tickers {
		t.Cancel()
	}
}

// SetOffered installs the ingress-observed offered-traffic counters for
// this server (all-time packet/byte totals and their post-warmup parts),
// which the collector reads where a standalone run reads its own client.
// Coordinator-only: call after the run, before Collect.
func (s *Instance) SetOffered(totalPkts, totalBytes, sentPkts, sentBytes uint64) {
	*s.r.off = offered{sentPkts: sentPkts, sentBytes: sentBytes, totalPkts: totalPkts, totalBytes: totalBytes}
}

// Collect assembles this server's Result. Latency percentiles stay zero —
// round trips close at the shared ingress, which owns the fleet-wide
// histogram.
func (s *Instance) Collect() Result { return s.r.collect() }

// AddSample accumulates this server's telemetry contribution into sm:
// sums for rates, queues, busy cores, drops, completions and power; max
// for ring occupancies. FwdThGbps and SNICTPGbps are summed too — the
// caller divides by the HAL-server count (the return value reports
// whether this server contributed control state). Reads only, and only
// state this server's engine owns, so it is safe at any barrier and, for
// servers sharing one group engine, from that group's goroutine.
func (s *Instance) AddSample(sm *telemetry.Sample, period sim.Time) bool {
	r := s.r
	hasCtl := false
	switch {
	case r.cfg.Mode == HAL:
		hasCtl = true
		sm.FwdThGbps += r.hal.Director.FwdTh()
		sm.RateRxGbps += r.hal.Director.RateGbps()
		sm.RateFwdGbps += r.hal.Director.RateFwdGbps()
		sm.SNICTPGbps += r.hal.Policy.SNICTPGbps()
	case r.cfg.Mode == SLB || r.cfg.Mode == SLBHost:
		hasCtl = true
		sm.FwdThGbps += r.slbDir.FwdTh()
		sm.RateRxGbps += r.slbDir.RateGbps()
		sm.RateFwdGbps += r.slbDir.RateFwdGbps()
	}

	snicB, hostB := sideBytesDone(&r.snic), sideBytesDone(&r.host)
	sm.SNICGbps += float64(snicB-r.telPrevSNICB) * 8 / float64(period)
	sm.HostGbps += float64(hostB-r.telPrevHostB) * 8 / float64(period)
	r.telPrevSNICB, r.telPrevHostB = snicB, hostB

	if occ := r.snic.first.port.MaxOccupancy(); occ > sm.SNICOccMax {
		sm.SNICOccMax = occ
	}
	if occ := r.host.first.port.MaxOccupancy(); occ > sm.HostOccMax {
		sm.HostOccMax = occ
	}
	sm.SNICBacklog += r.snic.first.port.TotalBacklog()
	sm.HostBacklog += r.host.first.port.TotalBacklog()
	sm.SNICBusy += r.snic.first.busyCores()
	sm.HostBusy += r.host.first.busyCores()
	if st := r.snic.second; st != nil {
		if occ := st.port.MaxOccupancy(); occ > sm.SNICOccMax {
			sm.SNICOccMax = occ
		}
		sm.SNICBacklog += st.port.TotalBacklog()
		sm.SNICBusy += st.busyCores()
	}
	if st := r.host.second; st != nil {
		if occ := st.port.MaxOccupancy(); occ > sm.HostOccMax {
			sm.HostOccMax = occ
		}
		sm.HostBacklog += st.port.TotalBacklog()
		sm.HostBusy += st.busyCores()
	}
	if r.slbFwd != nil {
		side, busy := &sm.SNICBacklog, &sm.SNICBusy
		if r.cfg.Mode == SLBHost {
			side, busy = &sm.HostBacklog, &sm.HostBusy
		}
		*side += r.slbFwd.port.TotalBacklog()
		*busy += r.slbFwd.busyCores()
	}
	for _, st := range r.stations() {
		sm.Drops += st.port.TotalDrops()
		sm.FaultDrops += st.port.TotalFaultDrops() + st.faultDrops
	}
	sm.Completed += r.completed
	sm.PowerW += r.power.LastWatts()
	sm.HostPowerW += r.powerHost.LastWatts()
	sm.SNICPowerW += r.powerSNIC.LastWatts()
	return hasCtl
}
