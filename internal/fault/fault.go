// Package fault is the deterministic fault-injection layer of the
// simulator: a Plan is a list of fault windows (core crashes, accelerator
// degradation to software-path rates, Rx-ring drop faults, load-balancer
// telemetry blackout, whole-server blackouts), each active over [From, To),
// that an Injector executes through sim.Engine timers, so a run with the
// same seed and the same plan is bit-for-bit reproducible — faults
// included.
//
// The package is deliberately mechanism-free: it knows *when* something
// breaks, not *how*. The server composition registers an apply function
// that maps each window edge onto the concrete component (a station core,
// a platform profile, a DPDK port, the LBP's telemetry path), which keeps
// the schedule reusable across operating modes.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"halsim/internal/sim"
)

// Kind names a fault mechanism.
type Kind int

// Fault kinds. CoreCrash kills cores 0..Cores-1 of one side's first-stage
// station; RxDrop imposes a drop probability on one side's Rx rings;
// AccelDegrade switches the SNIC station to its software-path profile;
// TelemetryBlackout starves the load balancing policy of fresh monitor and
// queue-occupancy readings; ServerCrash blacks a whole server out (both Rx
// sides drop every packet, as if its NIC lost link).
const (
	CoreCrash Kind = iota
	RxDrop
	AccelDegrade
	TelemetryBlackout
	ServerCrash
	numKinds
)

var kindNames = [numKinds]string{"core-crash", "rx-drop", "accel-degrade", "telemetry-blackout", "server-crash"}

func (k Kind) String() string {
	if k >= 0 && k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// ParseKind resolves a kind's name.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q (want %s)", name, strings.Join(kindNames[:], ", "))
}

// Window is one fault, active on server Server during [From, To).
type Window struct {
	From, To sim.Time
	// Server is the index of the server the window targets in a fleet; a
	// single server is server 0.
	Server int
	Kind   Kind
	// Host aims a core-crash or rx-drop at the host; the default is the
	// SNIC.
	Host bool
	// Cores is how many cores (indices 0..Cores-1) a core-crash kills.
	Cores int
	// DropProb is an rx-drop's per-packet drop probability, in (0, 1].
	DropProb float64
}

// String describes the fault without its span.
func (w Window) String() string {
	side := "snic"
	if w.Host {
		side = "host"
	}
	switch w.Kind {
	case CoreCrash:
		return fmt.Sprintf("crash %d %s core(s)", w.Cores, side)
	case RxDrop:
		return fmt.Sprintf("%s rx-drop p=%.3f", side, w.DropProb)
	case AccelDegrade:
		return "snic accel degrade to software path"
	case TelemetryBlackout:
		return "lbp telemetry blackout"
	case ServerCrash:
		return fmt.Sprintf("server %d blackout", w.Server)
	}
	return w.Kind.String()
}

// Conflicts reports whether w and o overlap in time on one server and
// drive the same mechanism, so the end of one would clear the other early:
// core-crashes or rx-drops on the same side, an rx-drop under a
// server-crash, two server-crashes, two accel-degrades or two telemetry
// blackouts. Windows that only touch do not conflict.
func (w Window) Conflicts(o Window) bool {
	if w.Server != o.Server || w.To <= o.From || o.To <= w.From {
		return false
	}
	if w.Kind == ServerCrash || o.Kind == ServerCrash {
		rx := func(k Kind) bool { return k == RxDrop || k == ServerCrash }
		return rx(w.Kind) && rx(o.Kind)
	}
	return w.Kind == o.Kind && w.Host == o.Host
}

// transitions is how many component states one edge of w changes.
func (w Window) transitions() uint64 {
	switch w.Kind {
	case CoreCrash:
		return uint64(w.Cores)
	case ServerCrash:
		return 2
	}
	return 1
}

// check validates the window's own fields.
func (w Window) check() error {
	switch {
	case w.Kind < 0 || w.Kind >= numKinds:
		return fmt.Errorf("unknown kind %d", int(w.Kind))
	case w.From <= 0:
		return fmt.Errorf("`at` must be positive, have %v", w.From)
	case w.To <= w.From:
		return fmt.Errorf("`for` must be positive, have %v", w.To-w.From)
	case w.Server < 0:
		return fmt.Errorf("targets negative server %d", w.Server)
	case w.Host && w.Kind != CoreCrash && w.Kind != RxDrop:
		return fmt.Errorf("%v has no host side", w.Kind)
	case w.Kind == CoreCrash && w.Cores < 1:
		return fmt.Errorf("core-crash needs cores >= 1, have %d", w.Cores)
	case w.Kind == RxDrop && (w.DropProb <= 0 || w.DropProb > 1):
		return fmt.Errorf("rx-drop needs drop_prob in (0, 1], have %g", w.DropProb)
	case w.Kind != CoreCrash && w.Cores != 0, w.Kind != RxDrop && w.DropProb != 0:
		return fmt.Errorf("cores apply to core-crash only, drop_prob to rx-drop only")
	}
	return nil
}

// Plan is a list of fault windows plus the seed for any randomized fault
// mechanism (Rx drop draws). The zero value is an empty plan.
type Plan struct {
	Windows []Window
	// Seed drives the fault layer's own RNG streams so fault randomness
	// never perturbs the workload's streams.
	Seed int64
}

// NewPlan returns an empty plan with the given fault seed.
func NewPlan(seed int64) *Plan { return &Plan{Seed: seed} }

func (p *Plan) add(w Window) *Plan {
	p.Windows = append(p.Windows, w)
	return p
}

// DegradeSNICAccel schedules the SNIC accelerator dropping to its
// software-path profile during [from, to).
func (p *Plan) DegradeSNICAccel(from, to sim.Time) *Plan {
	return p.add(Window{From: from, To: to, Kind: AccelDegrade})
}

// DropSNICRx schedules a drop-probability fault on the SNIC Rx rings
// during [from, to).
func (p *Plan) DropSNICRx(from, to sim.Time, prob float64) *Plan {
	return p.add(Window{From: from, To: to, Kind: RxDrop, DropProb: prob})
}

// DropHostRx schedules a drop-probability fault on the host Rx rings
// during [from, to).
func (p *Plan) DropHostRx(from, to sim.Time, prob float64) *Plan {
	return p.add(Window{From: from, To: to, Kind: RxDrop, Host: true, DropProb: prob})
}

// BlackoutTelemetry schedules a monitor/occupancy telemetry dropout during
// [from, to).
func (p *Plan) BlackoutTelemetry(from, to sim.Time) *Plan {
	return p.add(Window{From: from, To: to, Kind: TelemetryBlackout})
}

// CrashServer blacks server out during [from, to): both Rx sides drop
// every packet, as if its NIC lost link. The server's own clock, policies
// and power model keep running.
func (p *Plan) CrashServer(server int, from, to sim.Time) *Plan {
	return p.add(Window{From: from, To: to, Server: server, Kind: ServerCrash})
}

// CrashSNICCores schedules n SNIC cores (indices 0..n-1) crashing at from
// and recovering at to — the standard capacity-loss scenario.
func (p *Plan) CrashSNICCores(from, to sim.Time, n int) *Plan {
	return p.add(Window{From: from, To: to, Kind: CoreCrash, Cores: n})
}

// ValidationError marks a plan that failed Validate: a configuration
// mistake rather than a runtime failure. The CLIs map it (via
// cliutil.ExitCode) to the usage-error exit status 2.
type ValidationError struct {
	msg string
	// Windows are the plan indices of the windows the error names.
	Windows []int
}

func (e *ValidationError) Error() string { return e.msg }

// Validate checks the plan is executable: every window's own fields, and
// no two windows in conflict. Failures are *ValidationError values.
func (p *Plan) Validate() error {
	at := func(i int) string {
		w := p.Windows[i]
		return fmt.Sprintf("window %d (%v, %v..%v)", i, w, w.From, w.To)
	}
	for i, w := range p.Windows {
		if err := w.check(); err != nil {
			return &ValidationError{msg: fmt.Sprintf("fault: %s: %v", at(i), err), Windows: []int{i}}
		}
	}
	for j, b := range p.Windows {
		for i, a := range p.Windows[:j] {
			if a.Conflicts(b) {
				return &ValidationError{Windows: []int{i, j},
					msg: fmt.Sprintf("fault: %s overlaps %s: both drive one mechanism of server %d", at(i), at(j), a.Server)}
			}
		}
	}
	return nil
}

// Split divides the plan among a fleet of n servers: plans[i] holds server
// i's windows in plan order under the plan's seed, readdressed to server 0
// because each server runs its share as a single server does; it is nil
// for a server the plan leaves alone. A nil plan splits into a nil slice.
// The windows' servers must lie in [0, n).
func (p *Plan) Split(n int) []*Plan {
	if p == nil {
		return nil
	}
	plans := make([]*Plan, n)
	for _, w := range p.Windows {
		i := w.Server
		if plans[i] == nil {
			plans[i] = NewPlan(p.Seed)
		}
		w.Server = 0
		plans[i].add(w)
	}
	return plans
}

// Injector binds a plan to an engine and an apply function. Arm schedules
// two edges per window, the start (on) at From and the end (off) at To;
// edges fire in (time, plan order) order through the engine's
// deterministic FIFO tie-break, so two runs with the same plan inject
// identically.
type Injector struct {
	eng   *sim.Engine
	apply func(w Window, on bool)
	edges []edge // in firing order

	// Injected counts the state transitions fired so far: a core-crash
	// edge changes Cores cores, a server-crash edge both Rx sides, any
	// other edge one component.
	Injected uint64
}

// edge is one window's start (on) or end.
type edge struct {
	at sim.Time
	w  Window
	on bool
}

// handsOff reports whether b starts exactly as a ends and is a's twin
// apart from the span, so the seam between them changes nothing.
func handsOff(a, b Window) bool {
	seam := a.To == b.From
	a.From, a.To = b.From, b.To
	return seam && a == b
}

// NewInjector validates the plan and builds an injector that calls apply
// at each window edge. The seam of two touching twin windows has no
// edges, so such a pair runs exactly as their union.
func NewInjector(eng *sim.Engine, plan *Plan, apply func(w Window, on bool)) (*Injector, error) {
	if eng == nil || apply == nil {
		return nil, fmt.Errorf("fault: injector needs an engine and an apply function")
	}
	if plan == nil {
		plan = &Plan{}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{eng: eng, apply: apply}
	for _, w := range plan.Windows {
		var fromPrev, toNext bool
		for _, o := range plan.Windows {
			fromPrev, toNext = fromPrev || handsOff(o, w), toNext || handsOff(w, o)
		}
		if !fromPrev {
			inj.edges = append(inj.edges, edge{w.From, w, true})
		}
		if !toNext {
			inj.edges = append(inj.edges, edge{w.To, w, false})
		}
	}
	sort.SliceStable(inj.edges, func(a, b int) bool { return inj.edges[a].at < inj.edges[b].at })
	return inj, nil
}

// Arm schedules every edge on the engine. Call once, before the run starts
// (edges earlier than the engine's current time are an error by the
// engine's own monotonicity check).
func (i *Injector) Arm() {
	fire := sim.Call(i.fire)
	for n, e := range i.edges {
		i.eng.AtCall(e.at, fire, nil, int64(n))
	}
}

// fire applies the n-th edge in firing order.
func (i *Injector) fire(_ any, n int64) {
	e := i.edges[n]
	i.Injected += e.w.transitions()
	i.apply(e.w, e.on)
}
