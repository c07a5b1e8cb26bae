package server

import (
	"fmt"

	"halsim/internal/core"
	"halsim/internal/fault"
	"halsim/internal/rng"
	"halsim/internal/sim"
	"halsim/internal/stats"
)

// PhaseStats are the per-window metrics of one measurement phase (fault
// experiments use phases for before/during/after the fault window).
// Throughput and latency attribute packets by creation time; power by
// sampling time.
type PhaseStats struct {
	Start, End  sim.Time
	AvgGbps     float64
	P99us       float64
	AvgPowerW   float64
	EffGbpsPerW float64
	Completed   uint64
}

// phaseAcc accumulates one phase's signals while the run executes.
type phaseAcc struct {
	start, end sim.Time
	hist       *stats.Histogram
	powerWSum  float64
	powerN     uint64
	bytes      uint64 // delivered bytes of packets created in the phase
	completed  uint64
}

// phaseAt returns the accumulator whose [start, end) window contains t,
// or nil when phases are off or t falls past the last boundary.
func (r *run) phaseAt(t sim.Time) *phaseAcc {
	for i := range r.phases {
		if ph := &r.phases[i]; t >= ph.start && t < ph.end {
			return ph
		}
	}
	return nil
}

// frozenObserver wraps the LBP's queue-occupancy source: during a
// telemetry blackout it replays the last healthy reading, modeling a stale
// rte_eth_rx_queue_count path.
type frozenObserver struct {
	inner core.QueueObserver
	down  *bool
	last  int
}

func (o *frozenObserver) MaxOccupancy() int {
	if *o.down {
		return o.last
	}
	o.last = o.inner.MaxOccupancy()
	return o.last
}

// buildFaults validates and arms the fault plan against the wired-up run.
func (r *run) buildFaults() error {
	plan := r.cfg.Faults
	if plan == nil {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	for _, e := range plan.Events {
		if e.At > r.rc.Duration {
			return fmt.Errorf("server: fault event %v scheduled past the run's duration %v", e, r.rc.Duration)
		}
	}
	// The fault layer draws from its own stream, so injecting a fault
	// never perturbs the workload's service-time or arrival draws.
	r.faultRng = rng.Stream(plan.Seed, rng.Fault, uint64(r.index))
	inj, err := fault.NewInjector(r.eng, plan, r.applyFault)
	if err != nil {
		return err
	}
	r.inj = inj
	inj.Arm()
	return nil
}

// applyFault maps one fault event onto the concrete component.
func (r *run) applyFault(e fault.Event) {
	switch e.Kind {
	case fault.SNICCoreCrash:
		r.snic.first.failCore(e.Core)
	case fault.SNICCoreRecover:
		r.snic.first.recoverCore(e.Core)
	case fault.HostCoreCrash:
		r.host.first.failCore(e.Core)
	case fault.HostCoreRecover:
		r.host.first.recoverCore(e.Core)
	case fault.SNICAccelDegrade:
		r.snic.first.setProfile(r.cfg.SNIC.SoftwareFallback(r.cfg.Fn))
	case fault.SNICAccelRestore:
		r.snic.first.setProfile(r.cfg.SNIC.Profile(r.cfg.Fn))
	case fault.SNICRxDrop:
		r.snic.first.port.SetRxFault(e.DropProb, &r.faultRng)
	case fault.SNICRxRestore:
		r.snic.first.port.SetRxFault(0, nil)
	case fault.HostRxDrop:
		r.host.first.port.SetRxFault(e.DropProb, &r.faultRng)
	case fault.HostRxRestore:
		r.host.first.port.SetRxFault(0, nil)
	case fault.TelemetryBlackout:
		r.telemetryDown = true
	case fault.TelemetryRestore:
		r.telemetryDown = false
	}
}
