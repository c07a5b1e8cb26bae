// Package nfconformance runs every registered network function through a
// shared compliance suite: generators must produce requests the function
// accepts, processing must be deterministic given identical state, and the
// registry metadata must be consistent. This is the cross-cutting
// integration check the per-function unit tests cannot express.
package nfconformance

import (
	"bytes"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/rng"

	_ "halsim/internal/nf/bayesfn"
	_ "halsim/internal/nf/bm25fn"
	_ "halsim/internal/nf/compressfn"
	_ "halsim/internal/nf/countfn"
	_ "halsim/internal/nf/cryptofn"
	_ "halsim/internal/nf/emafn"
	_ "halsim/internal/nf/knnfn"
	_ "halsim/internal/nf/kvsfn"
	_ "halsim/internal/nf/natfn"
	_ "halsim/internal/nf/remfn"
)

func TestEveryFunctionRegistered(t *testing.T) {
	reg := nf.Registered()
	if len(reg) != len(nf.All) {
		t.Fatalf("registered %d of %d functions", len(reg), len(nf.All))
	}
	for i, id := range nf.All {
		if reg[i] != id {
			t.Fatalf("registry order %v != All %v", reg, nf.All)
		}
	}
}

// iterations per function; crypto and compression are the slow ones.
func iterationsFor(id nf.ID) int {
	switch id {
	case nf.Crypto:
		return 30
	case nf.Comp:
		return 20
	default:
		return 500
	}
}

func TestGeneratorsProduceAcceptedRequests(t *testing.T) {
	for _, id := range nf.All {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			fn, gen, err := nf.New(id, "")
			if err != nil {
				t.Fatal(err)
			}
			if fn.ID() != id {
				t.Fatalf("function reports ID %v", fn.ID())
			}
			rng := rng.Stream(7, rng.Payload, 0)
			for i := 0; i < iterationsFor(id); i++ {
				req := gen.Next(&rng)
				if len(req) == 0 {
					t.Fatalf("iteration %d: empty request", i)
				}
				resp, err := fn.Process(req)
				if err != nil {
					t.Fatalf("iteration %d: %v (req %d bytes)", i, err, len(req))
				}
				_ = resp
			}
		})
	}
}

func TestStatefulFunctionsExposeStateLines(t *testing.T) {
	for _, id := range nf.All {
		fn, gen, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		sf, hasState := fn.(nf.StateFunction)
		if id.Stateful() && id != nf.Comp && !hasState {
			// Comp's state is the stream, not shared lines; the other
			// stateful functions must expose their line footprint.
			t.Errorf("%v is stateful but does not implement StateFunction", id)
		}
		if !hasState {
			continue
		}
		rng := rng.Stream(3, rng.Payload, 0)
		for i := 0; i < 50; i++ {
			req := gen.Next(&rng)
			a := sf.StateLines(req)
			b := sf.StateLines(req)
			if len(a) == 0 {
				t.Errorf("%v: request with no state lines", id)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Errorf("%v: StateLines not deterministic", id)
				}
			}
		}
	}
}

func TestFreshInstancesIndependent(t *testing.T) {
	// Two instances of the same function must not share state.
	for _, id := range []nf.ID{nf.KVS, nf.Count, nf.EMA, nf.NAT} {
		fnA, gen, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		fnB, _, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.Stream(9, rng.Payload, 0)
		// Drive A hard, then check a fresh request produces the same
		// first response on B as a brand-new third instance.
		var reqs [][]byte
		for i := 0; i < 200; i++ {
			req := gen.Next(&rng)
			reqs = append(reqs, req)
			if _, err := fnA.Process(req); err != nil {
				t.Fatal(err)
			}
		}
		fnC, _, _ := nf.New(id, "")
		respB, errB := fnB.Process(reqs[0])
		respC, errC := fnC.Process(reqs[0])
		if (errB == nil) != (errC == nil) || !bytes.Equal(respB, respC) {
			t.Errorf("%v: fresh instances disagree (state leaked through the factory)", id)
		}
	}
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, id := range nf.All {
		_, genA, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		_, genB, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		ra := rng.Stream(4, rng.Payload, 0)
		rb := rng.Stream(4, rng.Payload, 0)
		for i := 0; i < 20; i++ {
			if !bytes.Equal(genA.Next(&ra), genB.Next(&rb)) {
				t.Errorf("%v: generators not deterministic per seed", id)
				break
			}
		}
	}
}

func TestProcessDoesNotMutateRequest(t *testing.T) {
	for _, id := range nf.All {
		fn, gen, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.Stream(5, rng.Payload, 0)
		for i := 0; i < 10; i++ {
			req := gen.Next(&rng)
			orig := append([]byte(nil), req...)
			if _, err := fn.Process(req); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(req, orig) {
				t.Errorf("%v: Process mutated the request buffer", id)
				break
			}
		}
	}
}

// TestNextIntoMatchesNext holds every buffer-reusing generator to the
// nf.RequestGenInto contract: rendered into a recycled buffer full of
// stale bytes, each request equals what Next returns at the same seed,
// and both paths leave the rng at the same point.
func TestNextIntoMatchesNext(t *testing.T) {
	covered := map[nf.ID]bool{}
	for _, id := range nf.All {
		_, genA, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		_, genB, err := nf.New(id, "")
		if err != nil {
			t.Fatal(err)
		}
		into, ok := genB.(nf.RequestGenInto)
		if !ok {
			continue
		}
		covered[id] = true
		t.Run(id.String(), func(t *testing.T) {
			ra := rng.Stream(11, rng.Payload, 0)
			rb := rng.Stream(11, rng.Payload, 0)
			// A small first buffer exercises the allocating fallback;
			// the largest request seen so far is recycled after that.
			buf := make([]byte, 0, 16)
			for i := 0; i < iterationsFor(id); i++ {
				stale := buf[:cap(buf)]
				for j := range stale {
					stale[j] = 0xAA
				}
				got := into.NextInto(&rb, buf)
				want := genA.Next(&ra)
				if !bytes.Equal(got, want) {
					t.Fatalf("request %d: NextInto differs from Next (%d vs %d bytes)", i, len(got), len(want))
				}
				if cap(got) > cap(buf) {
					buf = got[:0]
				}
			}
			if ra != rb {
				t.Fatal("streams diverged: Next and NextInto made different draws")
			}
		})
	}
	for _, id := range []nf.ID{nf.Count, nf.EMA, nf.NAT, nf.KNN, nf.REM, nf.Crypto} {
		if !covered[id] {
			t.Errorf("%v no longer implements nf.RequestGenInto", id)
		}
	}
}

// TestNextLenMatchesNext holds every dry generator to the nf.RequestGenLen
// contract: on each request's own stream, NextLen returns the length of
// the request Next draws from the same state. The keys include (1, 3909)
// and (1, 494557), whose REM filler draws redraw.
func TestNextLenMatchesNext(t *testing.T) {
	seqs := []uint64{3909, 494557}
	for seq := uint64(0); seq < 60; seq++ {
		seqs = append(seqs, seq)
	}
	covered := map[nf.ID]bool{}
	for _, id := range nf.All {
		for _, config := range []string{"", "lite"} {
			if nf.CheckConfig(id, config) != nil {
				continue
			}
			_, gen, err := nf.New(id, config)
			if err != nil {
				t.Fatal(err)
			}
			dry, ok := gen.(nf.RequestGenLen)
			if !ok {
				continue
			}
			covered[id] = true
			for _, seq := range seqs {
				ra := rng.Stream(1, rng.Payload, seq)
				rb := ra
				if got, want := dry.NextLen(&rb), len(gen.Next(&ra)); got != want {
					t.Fatalf("%v %q request %d: NextLen %d, Next %d bytes", id, config, seq, got, want)
				}
			}
		}
	}
	if !covered[nf.REM] {
		t.Errorf("%v no longer implements nf.RequestGenLen", nf.REM)
	}
}
