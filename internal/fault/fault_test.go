package fault

import (
	"reflect"
	"strings"
	"testing"

	"halsim/internal/sim"
)

func TestPlanBuilders(t *testing.T) {
	p := NewPlan(7).
		CrashSNICCore(10, 1).
		RecoverSNICCore(20, 1).
		CrashHostCore(10, 0).
		RecoverHostCore(20, 0).
		DegradeSNICAccel(5, 25).
		DropSNICRx(5, 25, 0.5).
		DropHostRx(5, 25, 0.1).
		BlackoutTelemetry(5, 25)
	if p.Seed != 7 {
		t.Fatalf("seed = %d", p.Seed)
	}
	if p.Len() != 12 {
		t.Fatalf("len = %d, want 12", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashSNICCoresWindow(t *testing.T) {
	p := NewPlan(1).CrashSNICCores(100, 200, 3)
	if p.Len() != 6 {
		t.Fatalf("len = %d, want 6", p.Len())
	}
	var crashes, recovers int
	for _, e := range p.Events {
		switch e.Kind {
		case SNICCoreCrash:
			crashes++
			if e.At != 100 {
				t.Fatalf("crash at %v", e.At)
			}
		case SNICCoreRecover:
			recovers++
			if e.At != 200 {
				t.Fatalf("recover at %v", e.At)
			}
		}
	}
	if crashes != 3 || recovers != 3 {
		t.Fatalf("crashes/recovers = %d/%d", crashes, recovers)
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []Event{
		{At: -1, Kind: SNICCoreCrash},
		{At: 0, Kind: Kind(99)},
		{At: 0, Kind: Kind(-1)},
		{At: 0, Kind: SNICCoreCrash, Core: -2},
		{At: 0, Kind: SNICRxDrop, DropProb: 1.5},
		{At: 0, Kind: HostRxDrop, DropProb: -0.1},
		{At: 0, Kind: TelemetryBlackout, Server: -1},
	}
	for i, e := range cases {
		p := NewPlan(0).Add(e)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%v) should fail validation", i, e)
		}
	}
}

func TestCrashServer(t *testing.T) {
	want := NewPlan(3).DropSNICRx(100, 200, 1).DropHostRx(100, 200, 1)
	for i := range want.Events {
		want.Events[i].Server = 5
	}
	got := NewPlan(3).CrashServer(5, 100, 200)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CrashServer = %+v, want %+v", got.Events, want.Events)
	}
	if s := got.Events[0].String(); !strings.Contains(s, "server=5") {
		t.Fatalf("event string %q does not name its server", s)
	}
}

func TestSplit(t *testing.T) {
	if (*Plan)(nil).Split(4) != nil {
		t.Fatal("a nil plan split into plans")
	}
	p := NewPlan(9).
		CrashServer(2, 100, 200).
		CrashSNICCore(50, 1).
		DegradeSNICAccel(10, 20)
	p.Events[len(p.Events)-1].Server = 2
	plans := p.Split(4)
	if len(plans) != 4 || plans[1] != nil || plans[3] != nil {
		t.Fatalf("servers without events got plans: %+v", plans)
	}
	if !reflect.DeepEqual(plans[0], NewPlan(9).CrashSNICCore(50, 1).Add(Event{At: 10, Kind: SNICAccelDegrade})) {
		t.Fatalf("server 0's plan %+v", plans[0])
	}
	// Server 2's share, readdressed to the server that runs it.
	want := NewPlan(9).CrashServer(0, 100, 200).Add(Event{At: 20, Kind: SNICAccelRestore})
	if !reflect.DeepEqual(plans[2], want) {
		t.Fatalf("server 2's plan %+v, want %+v", plans[2].Events, want.Events)
	}
}

func TestSortedStableOnTies(t *testing.T) {
	p := NewPlan(0).
		CrashSNICCore(50, 2).
		CrashSNICCore(50, 0).
		CrashSNICCore(10, 1).
		CrashSNICCore(50, 1)
	got := p.Sorted()
	wantCores := []int{1, 2, 0, 1}
	for i, e := range got {
		if e.Core != wantCores[i] {
			t.Fatalf("sorted[%d].Core = %d, want %d", i, e.Core, wantCores[i])
		}
	}
	// Sorted must not mutate the plan.
	if p.Events[0].Core != 2 {
		t.Fatal("Sorted mutated the plan")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "fault(") {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "fault(") {
		t.Fatal("unknown kind should render as fault(n)")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1000, Kind: SNICCoreCrash, Core: 3}
	if s := e.String(); !strings.Contains(s, "core=3") {
		t.Fatalf("core event string %q", s)
	}
	e = Event{At: 1000, Kind: SNICRxDrop, DropProb: 0.25}
	if s := e.String(); !strings.Contains(s, "0.250") {
		t.Fatalf("rx event string %q", s)
	}
}

func TestInjectorFiresInOrder(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPlan(0).
		CrashSNICCore(300, 0).
		CrashSNICCore(100, 1).
		CrashSNICCore(100, 2) // tie with the 100ns event: insertion order wins
	var fired []Event
	inj, err := NewInjector(eng, p, func(e Event) { fired = append(fired, e) })
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	eng.Run()
	if inj.Injected != 3 || len(fired) != 3 {
		t.Fatalf("injected = %d, fired = %d", inj.Injected, len(fired))
	}
	wantCores := []int{1, 2, 0}
	for i, e := range fired {
		if e.Core != wantCores[i] {
			t.Fatalf("fired[%d].Core = %d, want %d", i, e.Core, wantCores[i])
		}
	}
}

func TestInjectorDeterministic(t *testing.T) {
	plan := NewPlan(0).CrashSNICCores(100, 200, 4).BlackoutTelemetry(100, 300)
	runOnce := func() []Event {
		eng := sim.NewEngine()
		var fired []Event
		inj, err := NewInjector(eng, plan, func(e Event) { fired = append(fired, e) })
		if err != nil {
			t.Fatal(err)
		}
		inj.Arm()
		eng.Run()
		return fired
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestInjectorRejectsBadInputs(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewInjector(nil, NewPlan(0), func(Event) {}); err == nil {
		t.Fatal("nil engine should fail")
	}
	if _, err := NewInjector(eng, NewPlan(0), nil); err == nil {
		t.Fatal("nil apply should fail")
	}
	bad := NewPlan(0).Add(Event{At: -5, Kind: SNICCoreCrash})
	if _, err := NewInjector(eng, bad, func(Event) {}); err == nil {
		t.Fatal("invalid plan should fail")
	}
	// A nil plan is an empty plan.
	inj, err := NewInjector(eng, nil, func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	eng.Run()
	if inj.Injected != 0 {
		t.Fatalf("empty plan injected %d", inj.Injected)
	}
}
