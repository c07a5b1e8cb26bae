package fault

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"halsim/internal/sim"
)

// applied is one apply call an injector made.
type applied struct {
	w  Window
	on bool
}

// fireAll arms plan on a fresh engine, runs it, and returns the injector
// and every apply call in firing order.
func fireAll(t *testing.T, plan *Plan) (*Injector, []applied) {
	t.Helper()
	eng := sim.NewEngine()
	var fired []applied
	inj, err := NewInjector(eng, plan, func(w Window, on bool) { fired = append(fired, applied{w, on}) })
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	eng.Run()
	return inj, fired
}

func TestPlanBuilders(t *testing.T) {
	p := NewPlan(7).
		CrashSNICCores(10, 20, 2).
		DegradeSNICAccel(5, 25).
		DropSNICRx(5, 25, 0.5).
		DropHostRx(5, 25, 0.1).
		BlackoutTelemetry(5, 25).
		CrashServer(1, 5, 25)
	if p.Seed != 7 {
		t.Fatalf("seed = %d", p.Seed)
	}
	want := []Window{
		{From: 10, To: 20, Kind: CoreCrash, Cores: 2},
		{From: 5, To: 25, Kind: AccelDegrade},
		{From: 5, To: 25, Kind: RxDrop, DropProb: 0.5},
		{From: 5, To: 25, Kind: RxDrop, Host: true, DropProb: 0.1},
		{From: 5, To: 25, Kind: TelemetryBlackout},
		{From: 5, To: 25, Server: 1, Kind: ServerCrash},
	}
	if !reflect.DeepEqual(p.Windows, want) {
		t.Fatalf("windows = %+v, want %+v", p.Windows, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashSNICCoresWindow(t *testing.T) {
	inj, fired := fireAll(t, NewPlan(1).CrashSNICCores(100, 200, 3))
	want := []applied{
		{Window{From: 100, To: 200, Kind: CoreCrash, Cores: 3}, true},
		{Window{From: 100, To: 200, Kind: CoreCrash, Cores: 3}, false},
	}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %+v, want %+v", fired, want)
	}
	// Three cores crash and three recover: six transitions from two edges.
	if inj.Injected != 6 {
		t.Fatalf("injected = %d, want 6", inj.Injected)
	}
}

func TestValidateRejectsBadWindows(t *testing.T) {
	cases := []struct {
		w    Window
		want string
	}{
		{Window{From: 0, To: 10, Kind: AccelDegrade}, "`at` must be positive"},
		{Window{From: -1, To: 10, Kind: AccelDegrade}, "`at` must be positive"},
		{Window{From: 10, To: 10, Kind: AccelDegrade}, "`for` must be positive"},
		{Window{From: 1, To: 10, Kind: Kind(99)}, "unknown kind 99"},
		{Window{From: 1, To: 10, Kind: Kind(-1)}, "unknown kind -1"},
		{Window{From: 1, To: 10, Kind: CoreCrash}, "cores >= 1"},
		{Window{From: 1, To: 10, Kind: RxDrop, DropProb: 1.5}, "drop_prob in (0, 1]"},
		{Window{From: 1, To: 10, Kind: RxDrop, Host: true}, "drop_prob in (0, 1]"},
		{Window{From: 1, To: 10, Kind: TelemetryBlackout, Server: -1}, "negative server -1"},
		{Window{From: 1, To: 10, Kind: AccelDegrade, Host: true}, "accel-degrade has no host side"},
		{Window{From: 1, To: 10, Kind: ServerCrash, Cores: 2}, "cores apply to core-crash only"},
		{Window{From: 1, To: 10, Kind: CoreCrash, Cores: 1, DropProb: 0.2}, "drop_prob to rx-drop only"},
	}
	for _, c := range cases {
		p := NewPlan(0).DegradeSNICAccel(1, 2).add(c.w)
		err := p.Validate()
		var ve *ValidationError
		if !errors.As(err, &ve) || !strings.Contains(err.Error(), c.want) || !reflect.DeepEqual(ve.Windows, []int{1}) {
			t.Errorf("%+v: err = %v, want a *ValidationError naming window 1 with %q", c.w, err, c.want)
		}
	}
}

// TestConflicts is the window rule: on one server, windows that drive the
// same mechanism may touch but may not overlap.
func TestConflicts(t *testing.T) {
	const ms = sim.Millisecond
	rx := Window{From: 1 * ms, To: 3 * ms, Kind: RxDrop, DropProb: 0.5}
	core := Window{From: 1 * ms, To: 3 * ms, Kind: CoreCrash, Cores: 2}
	later := func(w Window) Window { w.From, w.To = 2*ms, 4*ms; return w }
	with := func(w Window, f func(*Window)) Window { f(&w); return w }
	cases := []struct {
		name     string
		a, b     Window
		conflict bool
	}{
		{"same-side rx-drops", rx, later(rx), true},
		{"rx-drop under a server-crash", rx, Window{From: 2 * ms, To: 4 * ms, Kind: ServerCrash}, true},
		{"host rx-drop under a server-crash", with(rx, func(w *Window) { w.Host = true }),
			Window{From: 2 * ms, To: 4 * ms, Kind: ServerCrash}, true},
		{"two server-crashes", Window{From: 1 * ms, To: 3 * ms, Kind: ServerCrash},
			Window{From: 2 * ms, To: 4 * ms, Kind: ServerCrash}, true},
		{"two snic core-crashes", core, later(with(core, func(w *Window) { w.Cores = 1 })), true},
		{"two accel-degrades", Window{From: 1 * ms, To: 3 * ms, Kind: AccelDegrade},
			Window{From: 2 * ms, To: 4 * ms, Kind: AccelDegrade}, true},
		{"two telemetry blackouts", Window{From: 1 * ms, To: 3 * ms, Kind: TelemetryBlackout},
			Window{From: 1 * ms, To: 2 * ms, Kind: TelemetryBlackout}, true},

		{"touching rx-drops", rx, with(rx, func(w *Window) { w.From, w.To = 3*ms, 4*ms }), false},
		{"rx-drops on different servers", rx, later(with(rx, func(w *Window) { w.Server = 1 })), false},
		{"rx-drops on different sides", rx, later(with(rx, func(w *Window) { w.Host = true })), false},
		{"core-crashes on different sides", core, later(with(core, func(w *Window) { w.Host = true })), false},
		{"rx-drop under a core-crash", rx, later(core), false},
		{"server-crash over another server's rx-drop", rx,
			Window{From: 2 * ms, To: 4 * ms, Server: 1, Kind: ServerCrash}, false},
		{"server-crash over a core-crash", core, Window{From: 2 * ms, To: 4 * ms, Kind: ServerCrash}, false},
		{"accel-degrade under a telemetry blackout", Window{From: 1 * ms, To: 3 * ms, Kind: AccelDegrade},
			Window{From: 2 * ms, To: 4 * ms, Kind: TelemetryBlackout}, false},
	}
	for _, c := range cases {
		if got := c.a.Conflicts(c.b); got != c.conflict || c.b.Conflicts(c.a) != got {
			t.Errorf("%s: Conflicts = %v, want %v both ways", c.name, got, c.conflict)
		}
		err := (&Plan{Windows: []Window{c.a, c.b}}).Validate()
		if !c.conflict {
			if err != nil {
				t.Errorf("%s: plan rejected: %v", c.name, err)
			}
			continue
		}
		var ve *ValidationError
		if !errors.As(err, &ve) || !reflect.DeepEqual(ve.Windows, []int{0, 1}) ||
			!strings.Contains(err.Error(), "window 0 (") || !strings.Contains(err.Error(), "window 1 (") {
			t.Errorf("%s: err = %v, want a *ValidationError naming windows 0 and 1", c.name, err)
		}
	}
}

func TestCrashServer(t *testing.T) {
	got := NewPlan(3).CrashServer(5, 100, 200)
	want := &Plan{Seed: 3, Windows: []Window{{From: 100, To: 200, Server: 5, Kind: ServerCrash}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CrashServer = %+v, want %+v", got, want)
	}
	if s := got.Windows[0].String(); s != "server 5 blackout" {
		t.Fatalf("window string %q does not name its server", s)
	}
	// Each edge drives both Rx sides: two transitions per edge.
	if inj, fired := fireAll(t, got); inj.Injected != 4 || len(fired) != 2 {
		t.Fatalf("injected %d transitions over %d edges, want 4 over 2", inj.Injected, len(fired))
	}
}

func TestSplit(t *testing.T) {
	if (*Plan)(nil).Split(4) != nil {
		t.Fatal("a nil plan split into plans")
	}
	p := NewPlan(9).
		CrashServer(2, 100, 200).
		CrashSNICCores(50, 60, 1).
		DegradeSNICAccel(10, 20)
	p.Windows[2].Server = 2
	plans := p.Split(4)
	if len(plans) != 4 || plans[1] != nil || plans[3] != nil {
		t.Fatalf("servers without windows got plans: %+v", plans)
	}
	if !reflect.DeepEqual(plans[0], NewPlan(9).CrashSNICCores(50, 60, 1)) {
		t.Fatalf("server 0's plan %+v", plans[0])
	}
	// Server 2's share, readdressed to the server that runs it.
	want := NewPlan(9).CrashServer(0, 100, 200).DegradeSNICAccel(10, 20)
	if !reflect.DeepEqual(plans[2], want) {
		t.Fatalf("server 2's plan %+v, want %+v", plans[2].Windows, want.Windows)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "fault(") {
			t.Fatalf("kind %d has no name", int(k))
		}
		if back, err := ParseKind(s); err != nil || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v", s, back, err)
		}
	}
	if numKinds != 5 {
		t.Fatalf("%d kinds, want the scenario's five", numKinds)
	}
	if !strings.HasPrefix(Kind(99).String(), "fault(") {
		t.Fatal("unknown kind should render as fault(n)")
	}
	if _, err := ParseKind("meteor"); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("ParseKind(meteor) err = %v", err)
	}
}

func TestWindowString(t *testing.T) {
	w := Window{From: 1000, To: 2000, Kind: CoreCrash, Cores: 3, Host: true}
	if s := w.String(); s != "crash 3 host core(s)" {
		t.Fatalf("core-crash string %q", s)
	}
	w = Window{From: 1000, To: 2000, Kind: RxDrop, DropProb: 0.25}
	if s := w.String(); s != "snic rx-drop p=0.250" {
		t.Fatalf("rx-drop string %q", s)
	}
}

// TestInjectorFiresInOrder pins the firing order: edges by time, ties in
// plan order, whatever order the windows were added in.
func TestInjectorFiresInOrder(t *testing.T) {
	p := NewPlan(0).
		CrashSNICCores(300, 400, 1).
		DegradeSNICAccel(100, 300).  // ends as window 0 starts
		BlackoutTelemetry(100, 200). // ties with window 1's start
		DropSNICRx(300, 350, 0.2)    // ties with window 0's start
	inj, fired := fireAll(t, p)
	type step struct {
		kind Kind
		on   bool
	}
	want := []step{
		{AccelDegrade, true}, {TelemetryBlackout, true}, {TelemetryBlackout, false},
		{CoreCrash, true}, {AccelDegrade, false}, {RxDrop, true}, {RxDrop, false}, {CoreCrash, false},
	}
	var got []step
	for _, e := range fired {
		got = append(got, step{e.w.Kind, e.on})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if inj.Injected != 8 {
		t.Fatalf("injected = %d, want 8", inj.Injected)
	}
}

// TestInjectorHandoff pins the seam of touching windows: where a window
// ends as an identical one starts, no edge fires there, so the pair runs
// as their union; a touching window that differs fires both edges.
func TestInjectorHandoff(t *testing.T) {
	inj, got := fireAll(t, NewPlan(0).DropSNICRx(200, 300, 0.5).DropSNICRx(100, 200, 0.5))
	want := []applied{
		{Window{From: 100, To: 200, Kind: RxDrop, DropProb: 0.5}, true},
		{Window{From: 200, To: 300, Kind: RxDrop, DropProb: 0.5}, false},
	}
	if !reflect.DeepEqual(got, want) || inj.Injected != 2 {
		t.Fatalf("touching pair fired %+v (%d transitions), want only the union's two edges", got, inj.Injected)
	}
	inj, got = fireAll(t, NewPlan(0).DropSNICRx(100, 200, 0.5).DropSNICRx(200, 300, 0.25))
	if len(got) != 4 || inj.Injected != 4 {
		t.Fatalf("different touching windows fired %d edges (%d transitions), want 4", len(got), inj.Injected)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	plan := NewPlan(0).CrashSNICCores(100, 200, 4).BlackoutTelemetry(100, 300)
	_, a := fireAll(t, plan)
	_, b := fireAll(t, plan)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan fired differently: %+v vs %+v", a, b)
	}
}

func TestInjectorRejectsBadInputs(t *testing.T) {
	eng := sim.NewEngine()
	apply := func(Window, bool) {}
	if _, err := NewInjector(nil, NewPlan(0), apply); err == nil {
		t.Fatal("nil engine should fail")
	}
	if _, err := NewInjector(eng, NewPlan(0), nil); err == nil {
		t.Fatal("nil apply should fail")
	}
	if _, err := NewInjector(eng, NewPlan(0).CrashSNICCores(-5, 10, 1), apply); err == nil {
		t.Fatal("invalid plan should fail")
	}
	// A nil plan is an empty plan.
	inj, err := NewInjector(eng, nil, apply)
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	eng.Run()
	if inj.Injected != 0 {
		t.Fatalf("empty plan injected %d", inj.Injected)
	}
}
