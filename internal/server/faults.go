package server

import (
	"fmt"

	"halsim/internal/fault"
	"halsim/internal/rng"
	"halsim/internal/sim"
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

// phaseAcc accumulates one phase's server-side signals while the run
// executes; the client's Meter keeps the phase's round trips.
type phaseAcc struct {
	powerWSum float64
	powerN    uint64
	bytes     uint64 // delivered bytes of packets created in the phase
	completed uint64
}

// phaseAt returns the accumulator whose window contains t, or nil when
// phases are off or t falls past the last boundary.
func (r *run) phaseAt(t sim.Time) *phaseAcc {
	if i := r.bounds.at(t); i >= 0 {
		return &r.phases[i]
	}
	return nil
}

// checkFaults checks the fault plan against the run it is part of: each
// window targets one of the run's servers (below Cluster.Servers, or 0 on
// a single server), lies inside the run, and crashes no more cores than
// its station has; then the plan's own checks.
func checkFaults(cfg *Config, rc *RunConfig) error {
	n := 1
	if cfg.Cluster != nil {
		n = cfg.Cluster.Servers
	}
	snicCores, hostCores := cfg.SNIC.Profile(cfg.Fn).Servers, cfg.Host.Profile(cfg.Fn).Servers
	if cfg.Mode == SLB {
		snicCores -= cfg.SLBCores // §IV: the forwarding cores process nothing
	}
	for i, w := range cfg.Faults.Windows {
		side, cores := "snic", snicCores
		if w.Host {
			side, cores = "host", hostCores
		}
		switch {
		case w.Server >= n:
			return fmt.Errorf("server: fault window %d (%v) targets server %d outside a fleet of %d", i, w, w.Server, n)
		case w.From >= rc.Duration:
			return fmt.Errorf("server: fault window %d (%v) starts at %v, past the run's duration %v", i, w, w.From, rc.Duration)
		case w.To > rc.Duration:
			return fmt.Errorf("server: fault window %d (%v) ends at %v, past the run's duration %v", i, w, w.To, rc.Duration)
		case w.Kind == fault.CoreCrash && w.Cores > cores:
			return fmt.Errorf("server: fault window %d crashes %d %s cores, but the %s station has %d", i, w.Cores, side, side, cores)
		}
	}
	return cfg.Faults.Validate()
}

// buildFaults arms the fault plan, which prepare has checked, against the
// wired-up run.
func (r *run) buildFaults() error {
	plan := r.cfg.Faults
	if plan == nil {
		return nil
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

// applyFault maps one window edge — on at its start, off at its end —
// onto the concrete components.
func (r *run) applyFault(w fault.Window, on bool) {
	side := &r.snic.first
	if w.Host {
		side = &r.host.first
	}
	prob := 0.0 // an Rx fault's drop probability; 0 clears the fault
	if on {
		prob = w.DropProb
	}
	switch w.Kind {
	case fault.CoreCrash:
		for c := 0; c < w.Cores; c++ {
			if on {
				side.failCore(c)
			} else {
				side.recoverCore(c)
			}
		}
	case fault.RxDrop:
		side.port.SetRxFault(prob, &r.faultRng)
	case fault.ServerCrash:
		if on {
			prob = 1
		}
		r.snic.first.port.SetRxFault(prob, &r.faultRng)
		r.host.first.port.SetRxFault(prob, &r.faultRng)
	case fault.AccelDegrade:
		prof := r.cfg.SNIC.Profile(r.cfg.Fn)
		if on {
			prof = r.cfg.SNIC.SoftwareFallback(r.cfg.Fn)
		}
		r.snic.first.setProfile(prof)
	case fault.TelemetryBlackout:
		r.telemetryDown = on
	}
}
