// Package energy integrates instantaneous power samples over simulated
// time into energy and efficiency figures — the simulator's stand-in for
// the paper's DCMI/Yocto-Watt measurement rig (§VI), which likewise samples
// wall power periodically and averages.
package energy

import "halsim/internal/sim"

// Integrator accumulates a piecewise-constant power signal.
type Integrator struct {
	lastT   sim.Time
	lastW   float64
	joules  float64
	elapsed sim.Time
	started bool
}

// Sample records that power was watts from the previous sample time until
// now. The first call only establishes the baseline.
func (in *Integrator) Sample(now sim.Time, watts float64) {
	if !in.started {
		in.started = true
		in.lastT = now
		in.lastW = watts
		return
	}
	dt := now - in.lastT
	if dt < 0 {
		panic("energy: time went backwards")
	}
	in.joules += in.lastW * dt.Seconds()
	in.elapsed += dt
	in.lastT = now
	in.lastW = watts
}

// AvgWatts returns the time-weighted average power (0 before two samples).
func (in *Integrator) AvgWatts() float64 {
	if in.elapsed <= 0 {
		return 0
	}
	return in.joules / in.elapsed.Seconds()
}

// LastWatts returns the most recent sample — the instantaneous power draw
// the telemetry timeline exports per tick (0 before the first sample).
func (in *Integrator) LastWatts() float64 { return in.lastW }

// EfficiencyGbpsPerWatt is the paper's energy-efficiency metric:
// throughput divided by average power.
func EfficiencyGbpsPerWatt(throughputGbps, avgWatts float64) float64 {
	if avgWatts <= 0 {
		return 0
	}
	return throughputGbps / avgWatts
}
