package server

import (
	"fmt"

	"halsim/internal/packet"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
)

// Fleet-scale embedding: a cluster run instantiates N complete servers —
// each the full SNIC+host pipeline of this package, faults and HLB
// included — on engines the cluster owns, through one Fleet. Every server
// in a group shares that group's engine and packet pool, so one group is
// one logical process and the conservative-parallel executor partitions
// the fleet along fabric links; every server of the fleet shares the
// Fleet's packet-path handlers.

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
}

// WithDefaults validates the cluster config and fills defaults.
func (c ClusterConfig) WithDefaults() (ClusterConfig, error) {
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
	return c, nil
}

// Fleet is what the servers of one fleet share on the packet path. Every
// packet event a server schedules carries its packet as the argument word
// and the server's index as the scalar; the handlers, bound once per
// fleet, find the server in the fleet's table by that index. So no
// handler, and no object between a handler and its server's block, is
// allocated per server. The table is filled while the fleet is built and
// only read once it runs, so a sharded fleet's groups share it.
type Fleet struct {
	runs []*run
	// respond, when non-nil, receives every wire-bound response at its
	// egress instant with the index of the server that sent it, in place
	// of the server's local latency recorder.
	respond func(srv int, p *packet.Packet)

	// The packet path's event handlers.
	arriveSNIC, arriveHost, halIngress, egress, toSNIC, toHost, ingress sim.Call
}

// NewFleet returns the shared packet-path context of a fleet of n
// servers. respond, when non-nil, receives every wire-bound response with
// its server's index; the caller carries it back over its fabric.
func NewFleet(n int, respond func(srv int, p *packet.Packet)) *Fleet {
	f := &Fleet{runs: make([]*run, n), respond: respond}
	f.arriveSNIC = func(a any, n int64) { f.runs[n].arriveSNIC(a.(*packet.Packet)) }
	f.arriveHost = func(a any, n int64) { f.runs[n].arriveHost(a.(*packet.Packet)) }
	f.halIngress = func(a any, n int64) { f.runs[n].halIngress(a.(*packet.Packet)) }
	f.egress = func(a any, n int64) { f.runs[n].egress(a.(*packet.Packet)) }
	f.toSNIC = func(a any, n int64) { f.runs[n].snic.first.enqueue(a.(*packet.Packet)) }
	f.toHost = func(a any, n int64) { f.runs[n].host.first.enqueue(a.(*packet.Packet)) }
	f.ingress = func(a any, n int64) {
		r := f.runs[n]
		r.ingress(a.(*packet.Packet), r.eng.Now())
	}
	return f
}

// IngressCall returns the fleet's request-arrival handler: scheduled with
// a request packet as the argument and a server's index as the scalar, it
// delivers the packet to that server at the firing instant.
func (f *Fleet) IngressCall() sim.Call { return f.ingress }

// Instance is one embedded server of a cluster run: built, started and
// collected by the cluster, fed by the shared ingress instead of its own
// client. It is the server's one block, so the fleet's table points
// straight at it.
type Instance struct {
	r run
}

// NewInstance builds server index of the fleet on the injected engine and
// pool without starting traffic. The index, with cfg.Seed, keys the
// server's random streams and is the server's place in the fleet's table;
// each index is built once. The Config must not ask for shards or
// telemetry of its own — the cluster owns both.
func (f *Fleet) NewInstance(cfg Config, rc RunConfig, index int, eng *sim.Engine, pool *packet.Pool) (*Instance, error) {
	if cfg.Cluster != nil {
		return nil, fmt.Errorf("server: embedded instance with nested Cluster config")
	}
	if index < 0 || index >= len(f.runs) || f.runs[index] != nil {
		return nil, fmt.Errorf("server: instance index %d is not a free slot of a fleet of %d", index, len(f.runs))
	}
	cfg.Shards = 0
	cfg.Telemetry = telemetry.Config{}
	if err := prepare(&cfg, &rc); err != nil {
		return nil, err
	}
	s := new(Instance)
	r := &s.r
	r.cfg, r.rc, r.index, r.eng, r.pool, r.fl, r.embedded = cfg, rc, index, eng, pool, f, true
	if err := r.build(); err != nil {
		return nil, err
	}
	f.runs[index] = r
	return s, nil
}

// Start registers the server's periodic processes (policy ticks, power
// sampling) on its engine; a drain cancels them with the engine's
// CancelTickers. An embedded server has no client and no meter; traffic
// arrives through Ingress.
func (s *Instance) Start() { s.r.start() }

// Ingress delivers one request packet at its wire-arrival instant, which
// must not lie before the engine clock.
func (s *Instance) Ingress(p *packet.Packet, at sim.Time) { s.r.ingress(p, at) }

// Collect assembles this server's Result. The client-side metrics —
// latency percentiles, MaxGbps, the rate series, phase p99 — stay zero:
// round trips close at the shared ingress, whose Meter owns them. So does
// the offered side: Sent, SentAll, OfferedGbps and DropFraction read zero
// and InFlightEnd is not meaningful, because the ingress counts what the
// fleet offered, not what each server got.
func (s *Instance) Collect() Result { return s.r.collect() }

// AddSample adds this server's telemetry reading into sm (see
// run.addSample) and reports whether it has control registers to average.
func (s *Instance) AddSample(sm *telemetry.Sample, period sim.Time) bool {
	return s.r.addSample(sm, period)
}
