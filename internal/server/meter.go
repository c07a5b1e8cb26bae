package server

import (
	"halsim/internal/sim"
	"halsim/internal/stats"
	"halsim/internal/telemetry"
)

// Meter is what the client observes of the system it offers traffic to:
// delivered request bytes and round trips, reduced to the Result's
// latency percentiles, best-window rate, delivered-rate series and
// per-phase p99. A standalone server's client and a fleet's shared
// ingress each own one, so both measure with this code; an embedded fleet
// server builds none.
type Meter struct {
	warmup     sim.Time
	window     sim.Time // MaxGbps window
	rateWindow sim.Time
	lat        *stats.Histogram // post-warmup round trips
	bounds     phaseBounds
	phaseLat   []*stats.Histogram // round trips by creation phase
	tl         *telemetry.Timeline

	winB       int64 // post-warmup bytes in the current MaxGbps window
	rateWinB   int64 // all-time bytes in the current RateSeries window
	winMaxGbps float64
	rateSeries []float64

	// eng runs the meter's periodic processes: rateTick closes a
	// RateSeries window, winTick a MaxGbps window.
	eng               *sim.Engine
	rateTick, winTick sim.Ticker
}

// NewMeter builds the meter of a normalized RunConfig; round trips also
// feed col's timeline latency window when the run has one (col may be nil).
func NewMeter(rc RunConfig, col *telemetry.Collector) *Meter {
	m := &Meter{
		warmup:     rc.Warmup,
		window:     MaxWindow(rc),
		rateWindow: rc.RateWindow,
		lat:        stats.NewHistogram(),
		bounds:     newPhaseBounds(rc),
	}
	if col != nil {
		m.tl = col.Timeline
	}
	for i := 1; i < len(m.bounds); i++ {
		m.phaseLat = append(m.phaseLat, stats.NewHistogram())
	}
	return m
}

// Start registers the meter's periodic processes on eng — the
// RateSeries window (with a RateWindow) and the MaxGbps window, in that
// order; a drain cancels them with eng's other tickers.
func (m *Meter) Start(eng *sim.Engine) {
	m.eng = eng
	if m.rateWindow > 0 {
		eng.Every(&m.rateTick, m.rateWindow, rateTick, m)
	}
	eng.Every(&m.winTick, m.window, windowTick, m)
}

// rateTick closes one RateSeries window.
func rateTick(a any, _ int64) {
	m := a.(*Meter)
	m.rateSeries = append(m.rateSeries, float64(m.rateWinB)*8/float64(m.rateWindow))
	m.rateWinB = 0
}

// windowTick closes one MaxGbps window; windows ending in the warmup do
// not count.
func windowTick(a any, _ int64) {
	m := a.(*Meter)
	winB := m.winB
	m.winB = 0
	if m.eng.Now() <= m.warmup {
		return
	}
	if g := float64(winB) * 8 / float64(m.window); g > m.winMaxGbps {
		m.winMaxGbps = g
	}
}

// Bytes counts n delivered bytes of a request created at createdAt. The
// rate series is all-time (the recovery-time signal needs the pre-warmup
// windows too); MaxGbps windows are warmup-gated.
func (m *Meter) Bytes(n int, createdAt int64) {
	m.rateWinB += int64(n)
	if sim.Time(createdAt) >= m.warmup {
		m.winB += int64(n)
	}
}

// RTT records the round trip of a request created at createdAt.
func (m *Meter) RTT(rtt, createdAt int64) {
	if i := m.bounds.at(sim.Time(createdAt)); i >= 0 {
		m.phaseLat[i].Record(rtt)
	}
	if sim.Time(createdAt) >= m.warmup {
		m.lat.Record(rtt)
	}
	if m.tl != nil {
		m.tl.RecordLatency(rtt)
	}
}

// Fill writes the client-side metrics into res: Completed and the
// latency percentiles, MaxGbps (never below res.AvgGbps, so set that
// first), the rate series, and each of res.Phases' P99us.
func (m *Meter) Fill(res *Result) {
	res.Completed = m.lat.Count()
	res.P50us = float64(m.lat.P50()) / 1000
	res.P99us = float64(m.lat.P99()) / 1000
	res.P999us = float64(m.lat.P999()) / 1000
	res.MaxGbps = m.winMaxGbps
	if res.MaxGbps < res.AvgGbps {
		res.MaxGbps = res.AvgGbps
	}
	for i, h := range m.phaseLat {
		res.Phases[i].P99us = float64(h.P99()) / 1000
	}
	res.RateSeries = m.rateSeries
	res.RateWindow = m.rateWindow
}

// phaseBounds are a run's measurement-phase edges [0, marks..., Duration],
// nil without PhaseMarks: phase i spans [b[i], b[i+1]).
type phaseBounds []sim.Time

func newPhaseBounds(rc RunConfig) phaseBounds {
	if len(rc.PhaseMarks) == 0 {
		return nil
	}
	b := append(phaseBounds{0}, rc.PhaseMarks...)
	return append(b, rc.Duration)
}

// at returns the phase whose window contains t, or -1 when phases are off
// or t falls past the last edge.
func (b phaseBounds) at(t sim.Time) int {
	for i := 1; i < len(b); i++ {
		if t >= b[i-1] && t < b[i] {
			return i - 1
		}
	}
	return -1
}
