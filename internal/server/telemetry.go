package server

import (
	"halsim/internal/sim"
	"halsim/internal/telemetry"
)

// Telemetry integration. Every hook on the packet path is a nil-checked
// struct field (run.tr / Meter.tl / station.tr), never an interface call, so
// a run with Config.Telemetry zeroed executes the exact event sequence and
// allocation profile it did before the telemetry layer existed. The
// collectors only read simulator state — cumulative counters, queue
// occupancies, policy registers — and keep their own window deltas, so
// enabling them cannot perturb Result either (TestGoldenDeterminism holds
// byte-for-byte with telemetry on).

// buildTelemetry constructs the run's collectors (nil when Config.Telemetry
// is zero) and threads the tracer into every station.
func (r *run) buildTelemetry() {
	r.col = telemetry.New(r.cfg.Telemetry)
	if r.col == nil {
		return
	}
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

// sampleTelemetry runs once per telemetry tick: it reads the server into
// one Sample, then feeds timeline and registry. Reads only — the
// simulation cannot observe that it ran.
func (r *run) sampleTelemetry() {
	s := telemetry.Sample{T: r.eng.Now()}
	r.addSample(&s, r.telPeriod)
	ev := r.eng.Processed()
	s.Events = ev - r.telPrevEvents
	r.telPrevEvents = ev
	r.col.Publish(s, r.offered().totalPkts)
}

// addSample adds this server's reading to s: the LBP's (or SLB's) control
// registers, per-side delivered rate over the period since the last call,
// backlogs, busy cores, drop and completion counters, and the power
// sampler's latest reading are summed; ring occupancies take the max. On a
// zero Sample that is the server's own reading. It reports whether the
// server has control registers, so a fleet can average them across the
// servers that do. Reads only state this server's engine owns, so a
// sharded fleet may call it at any barrier.
func (r *run) addSample(s *telemetry.Sample, period sim.Time) bool {
	hasCtl := true
	switch {
	case r.cfg.Mode == HAL:
		s.FwdThGbps += r.hal.Director.FwdTh()
		s.RateRxGbps += r.hal.Director.RateGbps()
		s.RateFwdGbps += r.hal.Director.RateFwdGbps()
		s.SNICTPGbps += r.hal.Policy.SNICTPGbps()
	case r.cfg.Mode == SLB || r.cfg.Mode == SLBHost:
		s.FwdThGbps += r.slbDir.FwdTh()
		s.RateRxGbps += r.slbDir.RateGbps()
		s.RateFwdGbps += r.slbDir.RateFwdGbps()
	default:
		hasCtl = false
	}

	// Per-side delivered rate over the period, from the stage-1 stations'
	// cumulative served bytes (stage 2 re-serves the same bytes; the power
	// sampler's windows stay untouched).
	snicB, hostB := r.snic.first.bytesDone, r.host.first.bytesDone
	s.SNICGbps += float64(snicB-r.telPrevSNICB) * 8 / float64(period)
	s.HostGbps += float64(hostB-r.telPrevHostB) * 8 / float64(period)
	r.telPrevSNICB, r.telPrevHostB = snicB, hostB

	for _, st := range [...]*station{&r.snic.first, r.snic.second, &r.host.first, r.host.second, r.slbFwd} {
		if st == nil {
			continue
		}
		// The SLB's forwarding cores sit on the SNIC in SLB mode and on
		// the host in SLB-host mode; their backlog and busy cores belong
		// to that side, but their ring is not an LBP watermark input.
		onHost := st == &r.host.first || st == r.host.second || (st == r.slbFwd && r.cfg.Mode == SLBHost)
		occ, backlog, busy := &s.SNICOccMax, &s.SNICBacklog, &s.SNICBusy
		if onHost {
			occ, backlog, busy = &s.HostOccMax, &s.HostBacklog, &s.HostBusy
		}
		if o := st.port.MaxOccupancy(); o > *occ && st != r.slbFwd {
			*occ = o
		}
		*backlog += st.port.TotalBacklog()
		*busy += st.busyCores()
		s.Drops += st.port.TotalDrops()
		s.FaultDrops += st.port.TotalFaultDrops() + st.faultDrops
	}
	s.Completed += r.completed

	s.PowerW += r.power.LastWatts()
	s.HostPowerW += r.powerHost.LastWatts()
	s.SNICPowerW += r.powerSNIC.LastWatts()
	return hasCtl
}
