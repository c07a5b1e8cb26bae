package server

import (
	"bytes"
	"fmt"
	"testing"

	"halsim/internal/fault"
	"halsim/internal/nf"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
)

// telShort is a telemetry-enabled run long enough for the LBP to move
// Fwd_Th and for the sampler to retain a few dozen ticks.
func telShort() RunConfig {
	return RunConfig{Duration: 10 * sim.Millisecond, RateGbps: 60}
}

func fullTelemetry() telemetry.Config {
	return telemetry.Config{Timeline: true, TraceEvery: 64}
}

// TestTelemetryArtifactsDeterministic runs the same seeded config twice
// with every collector on and requires byte-identical exports — the
// artifact-level determinism contract of the ISSUE.
func TestTelemetryArtifactsDeterministic(t *testing.T) {
	runOnce := func() Result {
		res, err := Run(Config{Mode: HAL, Fn: nf.NAT, Seed: 11, Telemetry: fullTelemetry()}, telShort())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()

	type export struct {
		name string
		fn   func(Result, *bytes.Buffer) error
	}
	for _, ex := range []export{
		{"timeline CSV", func(r Result, w *bytes.Buffer) error { return r.Timeline.WriteCSV(w) }},
		{"timeline JSON", func(r Result, w *bytes.Buffer) error { return r.Timeline.WriteJSON(w) }},
		{"trace JSON", func(r Result, w *bytes.Buffer) error { return r.Trace.WriteTrace(w) }},
		{"metrics text", func(r Result, w *bytes.Buffer) error { return r.Metrics.WriteText(w) }},
	} {
		var ba, bb bytes.Buffer
		if err := ex.fn(a, &ba); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		if err := ex.fn(b, &bb); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		if ba.Len() == 0 {
			t.Fatalf("%s export is empty", ex.name)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Fatalf("%s differs between identical seeded runs", ex.name)
		}
	}
	if a.Timeline.Len() == 0 || a.Trace.Len() == 0 {
		t.Fatalf("empty collectors: %d samples, %d spans", a.Timeline.Len(), a.Trace.Len())
	}
}

// TestTelemetryNonPerturbation compares a run's full Result with telemetry
// off and on: after blanking the artifact pointers themselves, every metric
// must match exactly — the collectors read state but never change it.
func TestTelemetryNonPerturbation(t *testing.T) {
	for _, mode := range []Mode{HostOnly, SNICOnly, HAL, SLB} {
		cfg := Config{Mode: mode, Fn: nf.NAT, Seed: 3}
		if mode == SLB {
			cfg.SLBCores = 2
			cfg.SLBFwdThGbps = 25
		}
		off, err := Run(cfg, telShort())
		if err != nil {
			t.Fatalf("%v off: %v", mode, err)
		}
		cfg.Telemetry = fullTelemetry()
		on, err := Run(cfg, telShort())
		if err != nil {
			t.Fatalf("%v on: %v", mode, err)
		}
		on.Timeline, on.Trace, on.Metrics = nil, nil, nil
		if got, want := fmt.Sprintf("%+v", on), fmt.Sprintf("%+v", off); got != want {
			t.Fatalf("%v: telemetry perturbed the run\n on: %s\noff: %s", mode, got, want)
		}
	}
}

// TestTelemetryLedgerUnderFaults drives a faulted, drained, fully traced
// run and audits packet conservation: the ledger must close exactly, and
// the registry's final counters must agree with it.
func TestTelemetryLedgerUnderFaults(t *testing.T) {
	plan := fault.NewPlan(7).
		CrashSNICCores(2*sim.Millisecond, 6*sim.Millisecond, 2).
		DropSNICRx(3*sim.Millisecond, 5*sim.Millisecond, 0.3)
	res, err := Run(
		Config{Mode: HAL, Fn: nf.NAT, Seed: 7, Faults: plan, Telemetry: fullTelemetry()},
		RunConfig{Duration: 10 * sim.Millisecond, RateGbps: 60, Drain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InFlightEnd != 0 {
		t.Fatalf("drained ledger leak: %d sent = %d completed + %d dropped, in flight %d",
			res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd)
	}
	if res.FaultDrops == 0 {
		t.Fatal("rx-drop fault injected but no fault drops recorded")
	}
	// The registry's end-of-run counters mirror the ledger. Re-registering
	// a name returns the existing handle, so the test can read back the
	// values the run published.
	reg := res.Metrics
	sent := reg.Value(reg.Counter("halsim_packets_sent_total", ""))
	completed := reg.Value(reg.Counter("halsim_packets_completed_total", ""))
	if uint64(sent) != res.SentAll || uint64(completed) != res.CompletedAll {
		t.Fatalf("registry (sent=%v completed=%v) disagrees with ledger (sent=%d completed=%d)",
			sent, completed, res.SentAll, res.CompletedAll)
	}
	// Every injected drop appears in the trace with its reason (drops are
	// recorded unconditionally, not 1-in-N sampled).
	var rxFaultDrops int
	for i := 0; i < res.Trace.Len(); i++ {
		s := res.Trace.At(i)
		if s.Kind == telemetry.KindDrop && telemetry.DropReason(s.Arg) == telemetry.DropRxFault {
			rxFaultDrops++
		}
	}
	if rxFaultDrops == 0 {
		t.Fatal("no rx-fault drop spans in the trace")
	}
}

// TestTelemetryRingFullDropSpans overloads a tiny ring and requires the
// tail drops to show up both in the timeline's drop counter and as
// ring-full drop spans in the trace.
func TestTelemetryRingFullDropSpans(t *testing.T) {
	res, err := Run(
		Config{Mode: SNICOnly, Fn: nf.NAT, Seed: 5, RingSize: 2, Telemetry: fullTelemetry()},
		RunConfig{Duration: 5 * sim.Millisecond, RateGbps: 90})
	if err != nil {
		t.Fatal(err)
	}
	if res.DropFraction == 0 {
		t.Skip("overload produced no drops; ring size model changed?")
	}
	last := res.Timeline.At(res.Timeline.Len() - 1)
	if last.Drops == 0 {
		t.Fatal("timeline's cumulative drop counter stayed zero despite drops")
	}
	var ringFull int
	for i := 0; i < res.Trace.Len(); i++ {
		s := res.Trace.At(i)
		if s.Kind == telemetry.KindDrop && telemetry.DropReason(s.Arg) == telemetry.DropRingFull {
			ringFull++
		}
	}
	if ringFull == 0 {
		t.Fatal("no ring-full drop spans in the trace")
	}
}

// TestTimelineFwdThSeries extracts the Fig. 9-style signal from one HAL
// run: the LBP's threshold must move over the timeline, and the arrival
// rate must be visible to it.
func TestTimelineFwdThSeries(t *testing.T) {
	res, err := Run(
		Config{Mode: HAL, Fn: nf.NAT, Seed: 2, Telemetry: telemetry.Config{Timeline: true}},
		RunConfig{Duration: 20 * sim.Millisecond, RateGbps: 80})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl.Len() < 10 {
		t.Fatalf("only %d samples", tl.Len())
	}
	if res.Trace != nil {
		t.Fatal("tracer built without TraceEvery")
	}
	minTh, maxTh, sawRate := tl.At(0).FwdThGbps, tl.At(0).FwdThGbps, false
	for i := 0; i < tl.Len(); i++ {
		s := tl.At(i)
		if s.FwdThGbps < minTh {
			minTh = s.FwdThGbps
		}
		if s.FwdThGbps > maxTh {
			maxTh = s.FwdThGbps
		}
		if s.RateRxGbps > 0 {
			sawRate = true
		}
	}
	if minTh == maxTh {
		t.Fatalf("Fwd_Th never moved (pinned at %v) — no Fig. 9 signal", minTh)
	}
	if !sawRate {
		t.Fatal("Rate_Rx stayed zero over the whole timeline")
	}
	// The final threshold in the timeline matches the Result.
	if got := tl.At(tl.Len() - 1).FwdThGbps; got != res.FinalFwdTh {
		t.Fatalf("last sample Fwd_Th %v != Result.FinalFwdTh %v", got, res.FinalFwdTh)
	}
}

// TestTelemetryLifecycleSpans checks that a sampled packet's span sequence
// tells the paper's story: ingress at the wire, an HLB decision, service,
// and a response — in that order, at nondecreasing times.
func TestTelemetryLifecycleSpans(t *testing.T) {
	res, err := Run(
		Config{Mode: HAL, Fn: nf.NAT, Seed: 4, Telemetry: telemetry.Config{TraceEvery: 64}},
		telShort())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		t.Fatal("timeline built without Timeline flag")
	}
	// Group spans by packet; find one with a full lifecycle.
	byPkt := map[uint64][]telemetry.Span{}
	for i := 0; i < res.Trace.Len(); i++ {
		s := res.Trace.At(i)
		byPkt[s.Pkt] = append(byPkt[s.Pkt], s)
	}
	checked := 0
	for pkt, spans := range byPkt {
		var kinds []telemetry.EventKind
		last := sim.Time(-1)
		for _, s := range spans {
			if s.T < last {
				t.Fatalf("pkt %d: spans out of order", pkt)
			}
			last = s.T
			kinds = append(kinds, s.Kind)
		}
		has := func(k telemetry.EventKind) bool {
			for _, kk := range kinds {
				if kk == k {
					return true
				}
			}
			return false
		}
		if !has(telemetry.KindIngress) || !has(telemetry.KindResponse) {
			continue // truncated at run end
		}
		if !has(telemetry.KindDivert) && !has(telemetry.KindKeep) {
			t.Fatalf("pkt %d: completed without an HLB decision: %v", pkt, kinds)
		}
		if !has(telemetry.KindEnqueue) || !has(telemetry.KindServe) || !has(telemetry.KindComplete) {
			t.Fatalf("pkt %d: lifecycle incomplete: %v", pkt, kinds)
		}
		if kinds[0] != telemetry.KindIngress || kinds[len(kinds)-1] != telemetry.KindResponse {
			t.Fatalf("pkt %d: lifecycle must start at ingress and end at response: %v", pkt, kinds)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no packet with a complete lifecycle in the trace")
	}
}
