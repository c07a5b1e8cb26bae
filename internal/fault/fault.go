// Package fault is the deterministic fault-injection layer of the
// simulator: a Plan is a schedule of timed fault events (core crashes and
// recoveries, accelerator degradation to software-path rates, Rx-ring drop
// faults, load-balancer telemetry blackout) that an Injector executes
// through sim.Engine timers, so a run with the same seed and the same plan
// is bit-for-bit reproducible — faults included.
//
// The package is deliberately mechanism-free: it knows *when* something
// breaks, not *how*. The server composition registers an apply function
// that maps each Event onto the concrete component (a station core, a
// platform profile, a DPDK port, the LBP's telemetry path), which keeps the
// schedule reusable across operating modes.
package fault

import (
	"fmt"
	"sort"

	"halsim/internal/sim"
)

// Kind enumerates the fault events the simulator can inject.
type Kind int

// Fault kinds. Crash/Recover pairs target one processor core (Event.Core);
// Degrade/Restore switch a whole station between its accelerated and
// software-path profiles; RxDrop/RxRestore impose a drop probability on a
// port's Rx rings; TelemetryBlackout/TelemetryRestore starve the load
// balancing policy of fresh monitor and queue-occupancy readings.
const (
	SNICCoreCrash Kind = iota
	SNICCoreRecover
	HostCoreCrash
	HostCoreRecover
	SNICAccelDegrade
	SNICAccelRestore
	SNICRxDrop
	SNICRxRestore
	HostRxDrop
	HostRxRestore
	TelemetryBlackout
	TelemetryRestore
	numKinds
)

func (k Kind) String() string {
	switch k {
	case SNICCoreCrash:
		return "snic-core-crash"
	case SNICCoreRecover:
		return "snic-core-recover"
	case HostCoreCrash:
		return "host-core-crash"
	case HostCoreRecover:
		return "host-core-recover"
	case SNICAccelDegrade:
		return "snic-accel-degrade"
	case SNICAccelRestore:
		return "snic-accel-restore"
	case SNICRxDrop:
		return "snic-rx-drop"
	case SNICRxRestore:
		return "snic-rx-restore"
	case HostRxDrop:
		return "host-rx-drop"
	case HostRxRestore:
		return "host-rx-restore"
	case TelemetryBlackout:
		return "telemetry-blackout"
	case TelemetryRestore:
		return "telemetry-restore"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// coreKind reports whether k targets a single core.
func (k Kind) coreKind() bool {
	switch k {
	case SNICCoreCrash, SNICCoreRecover, HostCoreCrash, HostCoreRecover:
		return true
	}
	return false
}

// rxKind reports whether k carries a drop probability.
func (k Kind) rxKind() bool {
	return k == SNICRxDrop || k == HostRxDrop
}

// Event is one timed fault.
type Event struct {
	// At is the absolute simulated instant the fault fires.
	At sim.Time
	// Server is the index of the server the event targets in a fleet; a
	// single server is server 0.
	Server int
	// Kind selects the fault mechanism.
	Kind Kind
	// Core is the target core index for the core-crash/recover kinds.
	Core int
	// DropProb is the per-packet Rx drop probability for the RxDrop
	// kinds, in [0, 1].
	DropProb float64
}

func (e Event) String() string {
	s := fmt.Sprintf("%v@%v", e.Kind, e.At)
	switch {
	case e.Kind.coreKind():
		s += fmt.Sprintf(" core=%d", e.Core)
	case e.Kind.rxKind():
		s += fmt.Sprintf(" p=%.3f", e.DropProb)
	}
	if e.Server != 0 {
		s += fmt.Sprintf(" server=%d", e.Server)
	}
	return s
}

// Plan is a schedule of fault events plus the seed for any randomized
// fault mechanism (Rx drop draws). The zero value is an empty plan.
type Plan struct {
	Events []Event
	// Seed drives the fault layer's own RNG streams so fault randomness
	// never perturbs the workload's streams.
	Seed int64
}

// NewPlan returns an empty plan with the given fault seed.
func NewPlan(seed int64) *Plan { return &Plan{Seed: seed} }

// Add appends an event and returns the plan for chaining.
func (p *Plan) Add(e Event) *Plan {
	p.Events = append(p.Events, e)
	return p
}

// CrashSNICCore schedules a SNIC core death at t.
func (p *Plan) CrashSNICCore(t sim.Time, core int) *Plan {
	return p.Add(Event{At: t, Kind: SNICCoreCrash, Core: core})
}

// RecoverSNICCore schedules a SNIC core recovery at t.
func (p *Plan) RecoverSNICCore(t sim.Time, core int) *Plan {
	return p.Add(Event{At: t, Kind: SNICCoreRecover, Core: core})
}

// CrashHostCore schedules a host core death at t.
func (p *Plan) CrashHostCore(t sim.Time, core int) *Plan {
	return p.Add(Event{At: t, Kind: HostCoreCrash, Core: core})
}

// RecoverHostCore schedules a host core recovery at t.
func (p *Plan) RecoverHostCore(t sim.Time, core int) *Plan {
	return p.Add(Event{At: t, Kind: HostCoreRecover, Core: core})
}

// DegradeSNICAccel schedules the SNIC accelerator dropping to its
// software-path profile during [from, to).
func (p *Plan) DegradeSNICAccel(from, to sim.Time) *Plan {
	p.Add(Event{At: from, Kind: SNICAccelDegrade})
	return p.Add(Event{At: to, Kind: SNICAccelRestore})
}

// DropSNICRx schedules a drop-probability fault on the SNIC Rx rings
// during [from, to).
func (p *Plan) DropSNICRx(from, to sim.Time, prob float64) *Plan {
	p.Add(Event{At: from, Kind: SNICRxDrop, DropProb: prob})
	return p.Add(Event{At: to, Kind: SNICRxRestore})
}

// DropHostRx schedules a drop-probability fault on the host Rx rings
// during [from, to).
func (p *Plan) DropHostRx(from, to sim.Time, prob float64) *Plan {
	p.Add(Event{At: from, Kind: HostRxDrop, DropProb: prob})
	return p.Add(Event{At: to, Kind: HostRxRestore})
}

// BlackoutTelemetry schedules a monitor/occupancy telemetry dropout during
// [from, to).
func (p *Plan) BlackoutTelemetry(from, to sim.Time) *Plan {
	p.Add(Event{At: from, Kind: TelemetryBlackout})
	return p.Add(Event{At: to, Kind: TelemetryRestore})
}

// CrashServer blacks server out during [from, to): both Rx sides drop
// every packet, as if its NIC lost link. The server's own clock, policies
// and power model keep running.
func (p *Plan) CrashServer(server int, from, to sim.Time) *Plan {
	p.Add(Event{At: from, Server: server, Kind: SNICRxDrop, DropProb: 1})
	p.Add(Event{At: to, Server: server, Kind: SNICRxRestore})
	p.Add(Event{At: from, Server: server, Kind: HostRxDrop, DropProb: 1})
	return p.Add(Event{At: to, Server: server, Kind: HostRxRestore})
}

// CrashSNICCores schedules n cores (indices 0..n-1) crashing at from and
// recovering at to — the standard capacity-loss scenario.
func (p *Plan) CrashSNICCores(from, to sim.Time, n int) *Plan {
	for c := 0; c < n; c++ {
		p.CrashSNICCore(from, c)
		p.RecoverSNICCore(to, c)
	}
	return p
}

// ValidationError marks a plan that failed Validate: a configuration
// mistake rather than a runtime failure. The CLIs map it (via
// cliutil.ExitCode) to the usage-error exit status 2.
type ValidationError struct{ msg string }

func (e *ValidationError) Error() string { return e.msg }

func validationf(format string, args ...interface{}) error {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// Validate checks the plan is executable: non-negative times, known kinds,
// sane cores and probabilities. Failures are *ValidationError values.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if e.At < 0 {
			return validationf("fault: event %d (%v) at negative time", i, e.Kind)
		}
		if e.Kind < 0 || e.Kind >= numKinds {
			return validationf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
		if e.Server < 0 {
			return validationf("fault: event %d (%v) targets negative server %d", i, e.Kind, e.Server)
		}
		if e.Kind.coreKind() && e.Core < 0 {
			return validationf("fault: event %d (%v) has negative core %d", i, e.Kind, e.Core)
		}
		if e.Kind.rxKind() && (e.DropProb < 0 || e.DropProb > 1) {
			return validationf("fault: event %d (%v) has drop probability %g outside [0,1]",
				i, e.Kind, e.DropProb)
		}
	}
	return nil
}

// Sorted returns the events ordered by time, ties broken by insertion
// order — exactly the order the injector fires them in.
func (p *Plan) Sorted() []Event {
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Len returns the event count.
func (p *Plan) Len() int { return len(p.Events) }

// Split divides the plan among a fleet of n servers: plans[i] holds server
// i's events in plan order under the plan's seed, readdressed to server 0
// because each server runs its share as a single server does; it is nil
// for a server the plan leaves alone. A nil plan splits into a nil slice.
// The events' servers must lie in [0, n).
func (p *Plan) Split(n int) []*Plan {
	if p == nil {
		return nil
	}
	plans := make([]*Plan, n)
	for _, e := range p.Events {
		i := e.Server
		if plans[i] == nil {
			plans[i] = NewPlan(p.Seed)
		}
		e.Server = 0
		plans[i].Add(e)
	}
	return plans
}

// Injector binds a plan to an engine and an apply function. Arm schedules
// every event; events fire in (time, insertion) order through the engine's
// deterministic FIFO tie-break, so two runs with the same plan inject
// identically.
type Injector struct {
	eng    *sim.Engine
	apply  func(Event)
	events []Event // the plan in firing order, indexed by the events' n word

	// Injected counts events fired so far.
	Injected uint64
}

// NewInjector validates the plan and builds an injector that calls apply
// for each event when it fires.
func NewInjector(eng *sim.Engine, plan *Plan, apply func(Event)) (*Injector, error) {
	if eng == nil || apply == nil {
		return nil, fmt.Errorf("fault: injector needs an engine and an apply function")
	}
	if plan == nil {
		plan = &Plan{}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{eng: eng, apply: apply, events: plan.Sorted()}, nil
}

// Arm schedules every plan event on the engine. Call once, before the run
// starts (events earlier than the engine's current time are an error by
// the engine's own monotonicity check).
func (i *Injector) Arm() {
	fire := sim.Call(i.fire)
	for n, e := range i.events {
		i.eng.AtCall(e.At, fire, nil, int64(n))
	}
}

// fire applies the n-th event of the sorted plan.
func (i *Injector) fire(_ any, n int64) {
	i.Injected++
	i.apply(i.events[n])
}
