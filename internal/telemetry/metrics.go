package telemetry

import "halsim/internal/telemetry/prof"

// metrics holds the halsim_* registry handles every run publishes: a
// single server its own sample, a fleet the aggregate across its servers
// (rates summed, occupancies maxed, threshold registers averaged).
// Registration happens once when the Collector is built; publication once
// per sample tick and once at run end — never per packet.
type metrics struct {
	fwdTh, rateRx, rateFwd, snicTP       MetricID
	snicGbps, hostGbps                   MetricID
	snicOcc, hostOcc, snicBusy, hostBusy MetricID
	powerW                               MetricID
	sent, completed, dropped, faultDrops MetricID
	events                               MetricID
}

func newMetrics(reg *Registry) *metrics {
	return &metrics{
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

// Publish records one sample: the timeline (when on) appends it and the
// registry's halsim_* metrics take its values, with sent the client's
// offered packets so far. A sample's Events is its tick's delta, so the
// events counter publishes their running sum: the timeline's events column
// sums to it.
func (c *Collector) Publish(s Sample, sent uint64) {
	if c.Timeline != nil {
		c.Timeline.Push(s)
	}
	c.events += s.Events
	m, reg := c.metrics, c.Registry
	reg.Set(m.fwdTh, s.FwdThGbps)
	reg.Set(m.rateRx, s.RateRxGbps)
	reg.Set(m.rateFwd, s.RateFwdGbps)
	reg.Set(m.snicTP, s.SNICTPGbps)
	reg.Set(m.snicGbps, s.SNICGbps)
	reg.Set(m.hostGbps, s.HostGbps)
	reg.Set(m.snicOcc, float64(s.SNICOccMax))
	reg.Set(m.hostOcc, float64(s.HostOccMax))
	reg.Set(m.snicBusy, float64(s.SNICBusy))
	reg.Set(m.hostBusy, float64(s.HostBusy))
	reg.Set(m.powerW, s.PowerW)
	reg.Set(m.sent, float64(sent))
	reg.Set(m.completed, float64(s.Completed))
	reg.Set(m.dropped, float64(s.Drops))
	reg.Set(m.faultDrops, float64(s.FaultDrops))
	reg.Set(m.events, float64(c.events))
}

// PublishProf pushes a sharded fleet's flight-recorder run-end totals into
// the registry under the halsim_par_* / halsim_wheel_* names. Only
// deterministic simulation state goes in: the registry text is a
// byte-compared artifact (-metrics-out), so the recorder's wall-clock
// fields (latch/plan/barrier time) are quarantined to console summaries
// and never published here.
func (c *Collector) PublishProf(rec *prof.Recorder) {
	reg := c.Registry
	var windows, parks, batches, msgs uint64
	for i := 0; i < rec.NumLanes(); i++ {
		l := rec.LaneAt(i)
		windows += l.WindowCount
		parks += l.Parks
		batches += l.Injects
		msgs += l.InjectedMsgs
	}
	set := func(id MetricID, v float64) { reg.Set(id, v) }
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
