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
			rng := rng.New(7)
			for i := 0; i < iterationsFor(id); i++ {
				req := gen.Next(rng)
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
		rng := rng.New(3)
		for i := 0; i < 50; i++ {
			req := gen.Next(rng)
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
		rng := rng.New(9)
		// Drive A hard, then check a fresh request produces the same
		// first response on B as a brand-new third instance.
		var reqs [][]byte
		for i := 0; i < 200; i++ {
			req := gen.Next(rng)
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
		ra := rng.New(4)
		rb := rng.New(4)
		for i := 0; i < 20; i++ {
			if !bytes.Equal(genA.Next(ra), genB.Next(rb)) {
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
		rng := rng.New(5)
		for i := 0; i < 10; i++ {
			req := gen.Next(rng)
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
			ra := rng.New(11)
			rb := rng.New(11)
			// A small first buffer exercises the allocating fallback;
			// the largest request seen so far is recycled after that.
			buf := make([]byte, 0, 16)
			for i := 0; i < iterationsFor(id); i++ {
				stale := buf[:cap(buf)]
				for j := range stale {
					stale[j] = 0xAA
				}
				got := into.NextInto(rb, buf)
				want := genA.Next(ra)
				if !bytes.Equal(got, want) {
					t.Fatalf("request %d: NextInto differs from Next (%d vs %d bytes)", i, len(got), len(want))
				}
				if cap(got) > cap(buf) {
					buf = got[:0]
				}
			}
			if a, b := ra.Int63(), rb.Int63(); a != b {
				t.Fatalf("rng streams diverged: Next side draws %d, NextInto side %d", a, b)
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
// contract: at each seed, NextLen returns the length Next's request has,
// request by request, and both leave the rng at the same point. The seeds
// include 1284911 and 1260503, whose streams redraw a REM filler byte.
func TestNextLenMatchesNext(t *testing.T) {
	seeds := []int64{1284911, 1260503}
	for seed := int64(0); seed < 60; seed++ {
		seeds = append(seeds, seed)
	}
	covered := map[nf.ID]bool{}
	for _, id := range nf.All {
		for _, config := range []string{"", "lite"} {
			if nf.CheckConfig(id, config) != nil {
				continue
			}
			_, genA, err := nf.New(id, config)
			if err != nil {
				t.Fatal(err)
			}
			_, genB, err := nf.New(id, config)
			if err != nil {
				t.Fatal(err)
			}
			dry, ok := genB.(nf.RequestGenLen)
			if !ok {
				continue
			}
			covered[id] = true
			for _, seed := range seeds {
				ra, rb := rng.New(seed), rng.New(seed)
				for i := 0; i < 20; i++ {
					if got, want := dry.NextLen(rb), len(genA.Next(ra)); got != want {
						t.Fatalf("%v %q seed %d request %d: NextLen %d, Next %d bytes", id, config, seed, i, got, want)
					}
				}
				if a, b := ra.Int63(), rb.Int63(); a != b {
					t.Fatalf("%v %q seed %d: next draw after Next %d, after NextLen %d", id, config, seed, a, b)
				}
			}
		}
	}
	if !covered[nf.REM] {
		t.Errorf("%v no longer implements nf.RequestGenLen", nf.REM)
	}
}
