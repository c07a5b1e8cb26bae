package server

import (
	"halsim/internal/telemetry"
	"halsim/internal/telemetry/prof"
)

// Telemetry integration. Every hook on the packet path is a nil-checked
// struct field (run.tr / run.tl / station.tr), never an interface call, so
// a run with Config.Telemetry zeroed executes the exact event sequence and
// allocation profile it did before the telemetry layer existed. The
// collectors only read simulator state — cumulative counters, queue
// occupancies, policy registers — and keep their own window deltas, so
// enabling them cannot perturb Result either (TestGoldenDeterminism holds
// byte-for-byte with telemetry on).

// ClusterMetrics exposes the run's registry handles to the cluster
// runner, which samples a whole fleet into the same halsim_* metric set
// a single server publishes (rates summed, occupancies maxed, threshold
// registers averaged across servers).
type ClusterMetrics struct {
	m *telMetrics
}

// NewClusterMetrics registers the standard metric set on reg.
func NewClusterMetrics(reg *telemetry.Registry) *ClusterMetrics {
	return &ClusterMetrics{m: newTelMetrics(reg)}
}

// Publish pushes one aggregate sample.
func (c *ClusterMetrics) Publish(s telemetry.Sample, sent uint64) {
	c.m.publish(s, sent)
}

// PublishProf pushes a sharded fleet's flight-recorder run-end totals into
// reg under the halsim_par_* / halsim_wheel_* names. Only deterministic
// simulation state goes in: the registry text is a byte-compared artifact
// (-metrics-out), so the recorder's wall-clock fields (latch/plan/barrier
// time) are quarantined to console summaries and never published here.
func PublishProf(reg *telemetry.Registry, rec *prof.Recorder) {
	var windows, parks, batches, msgs uint64
	for i := 0; i < rec.NumLanes(); i++ {
		l := rec.LaneAt(i)
		windows += l.WindowCount
		parks += l.Parks
		batches += l.Injects
		msgs += l.InjectedMsgs
	}
	set := func(id telemetry.MetricID, v float64) { reg.Set(id, v) }
	set(reg.Counter("halsim_par_rounds_total", "conservative-parallel barrier rounds"), float64(rec.Rounds))
	set(reg.Counter("halsim_par_windows_total", "executed run-ahead windows across shards"), float64(windows))
	set(reg.Counter("halsim_par_parks_total", "shard parks in all-idle rounds (no shard had work before the round end), summed across shards"), float64(parks))
	set(reg.Counter("halsim_par_inject_batches_total", "cross-LP InjectBatch calls across shards"), float64(batches))
	set(reg.Counter("halsim_par_inject_msgs_total", "cross-LP messages injected across shards"), float64(msgs))
	var cascades, overflow, slab uint64
	for _, wl := range rec.Wheels() {
		cascades += wl.Stats.Cascades
		overflow += wl.Stats.Overflow
		slab += uint64(wl.Stats.SlabHighWater)
	}
	set(reg.Counter("halsim_wheel_cascades_total", "timing-wheel level cascades across engines"), float64(cascades))
	set(reg.Counter("halsim_wheel_overflow_total", "timing-wheel overflow-heap inserts across engines"), float64(overflow))
	set(reg.Gauge("halsim_wheel_slab_high_water", "summed event-slab high water across engines"), float64(slab))
}

// telMetrics holds the run's registry handles. Registration happens once at
// build time; publication once per sample tick and once at run end — never
// per packet.
type telMetrics struct {
	reg *telemetry.Registry

	fwdTh, rateRx, rateFwd, snicTP       telemetry.MetricID
	snicGbps, hostGbps                   telemetry.MetricID
	snicOcc, hostOcc, snicBusy, hostBusy telemetry.MetricID
	powerW                               telemetry.MetricID
	sent, completed, dropped, faultDrops telemetry.MetricID
	events                               telemetry.MetricID
}

func newTelMetrics(reg *telemetry.Registry) *telMetrics {
	return &telMetrics{
		reg:     reg,
		fwdTh:   reg.Gauge("halsim_fwd_th_gbps", "LBP forwarding threshold Fwd_Th"),
		rateRx:  reg.Gauge("halsim_rate_rx_gbps", "traffic monitor arrival rate Rate_Rx"),
		rateFwd: reg.Gauge("halsim_rate_fwd_gbps", "host-diverted rate Rate_Fwd = max(0, Rate_Rx - Fwd_Th)"),
		snicTP:  reg.Gauge("halsim_snic_tp_gbps", "LBP's SNIC throughput estimate SNIC_TP"),

		snicGbps: reg.Gauge("halsim_snic_delivered_gbps", "SNIC-side delivered rate over the last sample tick"),
		hostGbps: reg.Gauge("halsim_host_delivered_gbps", "host-side delivered rate over the last sample tick"),

		snicOcc:  reg.Gauge("halsim_snic_rx_occupancy_max", "max SNIC Rx-ring occupancy (LBP watermark input)"),
		hostOcc:  reg.Gauge("halsim_host_rx_occupancy_max", "max host Rx-ring occupancy"),
		snicBusy: reg.Gauge("halsim_snic_busy_cores", "SNIC cores mid-service"),
		hostBusy: reg.Gauge("halsim_host_busy_cores", "host cores mid-service"),

		powerW: reg.Gauge("halsim_power_w", "instantaneous wall power"),

		sent:       reg.Counter("halsim_packets_sent_total", "packets offered by the client (warmup included)"),
		completed:  reg.Counter("halsim_packets_completed_total", "packets fully processed"),
		dropped:    reg.Counter("halsim_packets_dropped_total", "Rx-ring tail drops"),
		faultDrops: reg.Counter("halsim_fault_drops_total", "packets lost to injected faults or dead stations"),
		events:     reg.Counter("halsim_engine_events_total", "discrete events executed"),
	}
}

// publish pushes one sample's values into the registry.
func (m *telMetrics) publish(s telemetry.Sample, sent uint64) {
	m.reg.Set(m.fwdTh, s.FwdThGbps)
	m.reg.Set(m.rateRx, s.RateRxGbps)
	m.reg.Set(m.rateFwd, s.RateFwdGbps)
	m.reg.Set(m.snicTP, s.SNICTPGbps)
	m.reg.Set(m.snicGbps, s.SNICGbps)
	m.reg.Set(m.hostGbps, s.HostGbps)
	m.reg.Set(m.snicOcc, float64(s.SNICOccMax))
	m.reg.Set(m.hostOcc, float64(s.HostOccMax))
	m.reg.Set(m.snicBusy, float64(s.SNICBusy))
	m.reg.Set(m.hostBusy, float64(s.HostBusy))
	m.reg.Set(m.powerW, s.PowerW)
	m.reg.Set(m.sent, float64(sent))
	m.reg.Set(m.completed, float64(s.Completed))
	m.reg.Set(m.dropped, float64(s.Drops))
	m.reg.Set(m.faultDrops, float64(s.FaultDrops))
	m.reg.Set(m.events, float64(s.Events))
}

// buildTelemetry constructs the run's collectors (nil when Config.Telemetry
// is zero) and threads the tracer into every station.
func (r *run) buildTelemetry() {
	r.col = telemetry.New(r.cfg.Telemetry)
	if r.col == nil {
		return
	}
	r.tl = r.col.Timeline
	r.tm = newTelMetrics(r.col.Registry)
	r.telPeriod = r.cfg.Telemetry.WithDefaults().TimelinePeriod

	if r.tr = r.col.Tracer; r.tr == nil {
		return
	}
	r.snic.first.tr, r.snic.first.telID = r.tr, telemetry.StSNIC
	r.host.first.tr, r.host.first.telID = r.tr, telemetry.StHost
	if r.snic.second != nil {
		r.snic.second.tr, r.snic.second.telID = r.tr, telemetry.StSNIC2
	}
	if r.host.second != nil {
		r.host.second.tr, r.host.second.telID = r.tr, telemetry.StHost2
	}
	if r.slbFwd != nil {
		r.slbFwd.tr, r.slbFwd.telID = r.tr, telemetry.StSLBFwd
	}
}

// sideBytesDone sums the cumulative served bytes of a side's stage-1
// station (stage 2 re-serves the same bytes, so stage 1 alone is the
// side's delivered-byte counter).
func sideBytesDone(side *sideStations) uint64 { return side.first.bytesDone }

// sampleTelemetry runs once per telemetry tick: it snapshots the LBP's
// control registers, per-side rates/queues/utilization, drop counters, and
// the power sampler's latest reading into one Sample, then feeds timeline
// and registry. Reads only — the simulation cannot observe that it ran.
func (r *run) sampleTelemetry() {
	var s telemetry.Sample
	s.T = r.eng.Now()

	switch {
	case r.cfg.Mode == HAL:
		s.FwdThGbps = r.hal.Director.FwdTh()
		s.RateRxGbps = r.hal.Director.RateGbps()
		s.RateFwdGbps = r.hal.Director.RateFwdGbps()
		s.SNICTPGbps = r.hal.Policy.SNICTPGbps()
	case r.cfg.Mode == SLB || r.cfg.Mode == SLBHost:
		s.FwdThGbps = r.slbDir.FwdTh()
		s.RateRxGbps = r.slbDir.RateGbps()
		s.RateFwdGbps = r.slbDir.RateFwdGbps()
	}

	// Per-side delivered rate over the tick window, from cumulative station
	// counters (the power sampler's windows stay untouched).
	snicB, hostB := sideBytesDone(&r.snic), sideBytesDone(&r.host)
	s.SNICGbps = float64(snicB-r.telPrevSNICB) * 8 / float64(r.telPeriod)
	s.HostGbps = float64(hostB-r.telPrevHostB) * 8 / float64(r.telPeriod)
	r.telPrevSNICB, r.telPrevHostB = snicB, hostB

	s.SNICOccMax = r.snic.first.port.MaxOccupancy()
	s.HostOccMax = r.host.first.port.MaxOccupancy()
	s.SNICBacklog = r.snic.first.port.TotalBacklog()
	s.HostBacklog = r.host.first.port.TotalBacklog()
	s.SNICBusy = r.snic.first.busyCores()
	s.HostBusy = r.host.first.busyCores()
	if st := r.snic.second; st != nil {
		if occ := st.port.MaxOccupancy(); occ > s.SNICOccMax {
			s.SNICOccMax = occ
		}
		s.SNICBacklog += st.port.TotalBacklog()
		s.SNICBusy += st.busyCores()
	}
	if st := r.host.second; st != nil {
		if occ := st.port.MaxOccupancy(); occ > s.HostOccMax {
			s.HostOccMax = occ
		}
		s.HostBacklog += st.port.TotalBacklog()
		s.HostBusy += st.busyCores()
	}
	// The SLB's forwarding cores sit on the SNIC in SLB mode and on the
	// host in SLB-host mode; their backlog belongs to that side.
	if r.slbFwd != nil {
		side := &s.SNICBacklog
		busy := &s.SNICBusy
		if r.cfg.Mode == SLBHost {
			side, busy = &s.HostBacklog, &s.HostBusy
		}
		*side += r.slbFwd.port.TotalBacklog()
		*busy += r.slbFwd.busyCores()
	}

	for _, st := range [...]*station{&r.snic.first, &r.host.first, r.snic.second, r.host.second, r.slbFwd} {
		if st == nil {
			continue
		}
		s.Drops += st.port.TotalDrops()
		s.FaultDrops += st.port.TotalFaultDrops() + st.faultDrops
	}
	s.Completed = r.completed

	s.PowerW = r.power.LastWatts()
	s.HostPowerW = r.powerHost.LastWatts()
	s.SNICPowerW = r.powerSNIC.LastWatts()

	ev := r.eng.Processed()
	s.Events = ev - r.telPrevEvents
	r.telPrevEvents = ev

	if r.tl != nil {
		r.tl.Push(s)
	}
	r.tm.publish(s, r.off.totalPkts)
}
