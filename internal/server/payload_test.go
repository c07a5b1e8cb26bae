package server

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"halsim/internal/cxl"
	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/rng"
	"halsim/internal/sim"
)

// runInside runs cfg as Run does and also returns the run, so a test can
// look at its functions, client and pool. setup, if not nil, sees the
// built run before it starts.
func runInside(t *testing.T, cfg Config, rc RunConfig, setup func(*run)) (*run, Result) {
	t.Helper()
	if err := prepare(&cfg, &rc); err != nil {
		t.Fatal(err)
	}
	r := &run{cfg: cfg, rc: rc, eng: sim.NewEngine(), pool: packet.NewPool()}
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(r)
	}
	r.start()
	r.eng.RunUntil(rc.Duration)
	return r, r.collect()
}

// lookAtRequests makes a runInside setup that shows look every request
// the client emits.
func lookAtRequests(look func(*packet.Packet)) func(*run) {
	return func(r *run) {
		emit := r.cli.emit
		r.cli.emit = func(p *packet.Packet, at sim.Time) {
			look(p)
			emit(p, at)
		}
	}
}

// TestFunctionalMixRoutesByTag: in a Functional run with a function mix,
// a mix-tagged packet carries the mix function's request and is processed
// by the mix function, so no request is rejected as malformed.
func TestFunctionalMixRoutesByTag(t *testing.T) {
	for _, mix := range [][2]nf.ID{{nf.KVS, nf.NAT}, {nf.NAT, nf.REM}, {nf.REM, nf.NAT}} {
		cfg := Config{Mode: HAL, Fn: mix[0], MixOn: true, MixFn: mix[1], MixFraction: 0.5,
			Functional: true, Seed: 1}
		res, err := Run(cfg, RunConfig{Duration: 2 * sim.Millisecond, RateGbps: 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 {
			t.Fatalf("%v+%v: nothing completed", mix[0], mix[1])
		}
		if res.FuncErrors != 0 {
			t.Fatalf("%v+%v: %d functional errors over %d packets", mix[0], mix[1], res.FuncErrors, res.Completed)
		}
	}
}

// TestDryREMRunTakesNoBuffer: with nothing reading REM's payloads, the
// client draws each request's length from its payload stream and renders
// no byte: no request carries a payload and the pool banks no buffer. The
// Functional run of the same seed renders every byte, and its model
// results are the dry run's. Each request's payload is its own stream's:
// rendering request k alone on its key gives the bytes the client
// rendered after requests 1…k-1.
func TestDryREMRunTakesNoBuffer(t *testing.T) {
	cfg := Config{Mode: HAL, Fn: nf.REM, Seed: 3}
	rc := RunConfig{Duration: 5 * sim.Millisecond, RateGbps: 30}
	payloads := 0
	r, dry := runInside(t, cfg, rc, lookAtRequests(func(p *packet.Packet) {
		if p.Payload != nil {
			payloads++
		}
	}))
	if r.cli.gen.dry == nil || payloads != 0 || r.pool.GetBuf() != nil {
		t.Fatalf("dry REM run: dry view %v, %d payloads, a banked buffer %v",
			r.cli.gen.dry != nil, payloads, r.pool.GetBuf() != nil)
	}
	if dry.Completed == 0 {
		t.Fatal("dry REM run completed nothing")
	}

	cfg.Functional = true
	short := 0
	rendered := map[uint64][]byte{}
	r, wet := runInside(t, cfg, rc, lookAtRequests(func(p *packet.Packet) {
		if len(p.Payload) < 200 || len(p.Payload)+packet.HeaderOverhead > p.WireLen {
			short++
		}
		if p.ID%97 == 1 {
			rendered[p.ID] = append([]byte(nil), p.Payload...)
		}
	}))
	if r.cli.gen.dry != nil || short != 0 || r.pool.GetBuf() == nil {
		t.Fatalf("Functional REM run: dry view %v, %d requests without a full payload, no banked buffer",
			r.cli.gen.dry != nil, short)
	}
	if !reflect.DeepEqual(dry, wet) {
		t.Fatalf("dry and Functional REM runs differ:\n%+v\n%+v", dry, wet)
	}
	if len(rendered) < 10 {
		t.Fatalf("only %d requests sampled", len(rendered))
	}
	_, gen, err := nf.New(nf.REM, "")
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range rendered {
		s := rng.Stream(cfg.Seed, rng.Payload, id)
		if got := gen.Next(&s); !bytes.Equal(got, want) {
			t.Fatalf("request %d rendered alone differs from the run's", id)
		}
	}
}

// scanRecorder counts the requests a function processes, those shorter
// than REM's 200-byte minimum, and the matches its responses report.
type scanRecorder struct {
	nf.Function
	calls, short, matches int
}

func (s *scanRecorder) Process(req []byte) ([]byte, error) {
	s.calls++
	if len(req) < 200 {
		s.short++
	}
	out, err := s.Function.Process(req)
	if err == nil {
		s.matches += int(binary.BigEndian.Uint32(out))
	}
	return out, err
}

// TestFunctionalREMScansEveryByte: a Functional REM run renders each
// request in full and scans it; the implanted patterns come back as
// matches.
func TestFunctionalREMScansEveryByte(t *testing.T) {
	for _, config := range []string{"tea", "lite"} {
		cfg := Config{Mode: SNICOnly, Fn: nf.REM, FnConfig: config, Functional: true}
		rec := &scanRecorder{}
		r, res := runInside(t, cfg, RunConfig{Duration: 5 * sim.Millisecond, RateGbps: 5}, func(r *run) {
			rec.Function = r.fn
			r.fn = rec
		})
		if res.CompletedAll == 0 || res.FuncErrors != 0 || r.cli.gen.dry != nil {
			t.Fatalf("%s: completed %d, functional errors %d, dry view %v",
				config, res.CompletedAll, res.FuncErrors, r.cli.gen.dry != nil)
		}
		if uint64(rec.calls) != res.CompletedAll || rec.short != 0 || rec.matches == 0 {
			t.Fatalf("%s: %d of %d completions scanned, %d short requests, %d matches",
				config, rec.calls, res.CompletedAll, rec.short, rec.matches)
		}
	}
}

// stateRecorder counts the StateLines calls a run makes and the requests
// among them that carried no bytes.
type stateRecorder struct {
	nf.StateFunction
	calls, empty int
}

func (s *stateRecorder) StateLines(req []byte) []uint64 {
	s.calls++
	if len(req) == 0 {
		s.empty++
	}
	return s.StateFunction.StateLines(req)
}

// TestFabricStateReadsRealBytes: a stateful function with a Fabric reads
// its requests' bytes in StateLines, so the client renders them.
func TestFabricStateReadsRealBytes(t *testing.T) {
	for _, fn := range []nf.ID{nf.Count, nf.KVS} {
		cfg := Config{Mode: HAL, Fn: fn, Fabric: cxl.CXL}
		rec := &stateRecorder{}
		r, _ := runInside(t, cfg, RunConfig{Duration: 5 * sim.Millisecond, RateGbps: 30}, func(r *run) {
			rec.StateFunction = r.stateFn
			r.stateFn = rec
		})
		if r.cli.gen.dry != nil || rec.calls == 0 || rec.empty != 0 {
			t.Fatalf("%v: dry view %v, %d StateLines calls, %d without bytes",
				fn, r.cli.gen.dry != nil, rec.calls, rec.empty)
		}
	}
}

// TestStateConsumers pins which functions read payload bytes outside a
// Functional run: the ones with StateLines, and only with a Fabric. Comp
// keeps per-file state (nf.ID.Stateful) but has no StateLines, so its
// payloads go unread.
func TestStateConsumers(t *testing.T) {
	for _, id := range nf.All {
		fn, _, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		want := id == nf.KVS || id == nf.Count || id == nf.EMA
		if got := stateConsumer(fn, Config{Fabric: cxl.CXL}) != nil; got != want {
			t.Errorf("%v with a Fabric: state consumer %v, want %v", id, got, want)
		}
		if stateConsumer(fn, Config{}) != nil {
			t.Errorf("%v without a Fabric: state consumer", id)
		}
	}
}
