// Package nfconformance runs every network function of the server's
// function table through a shared compliance suite: generators must
// produce requests the function accepts and keep the nf.RequestGen
// contract, and processing must be deterministic given identical state.
// This is the cross-cutting integration check the per-function unit tests
// cannot express.
package nfconformance

import (
	"bytes"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/rng"
	"halsim/internal/server"
)

// build makes function id in config through the server's function table.
func build(t testing.TB, id nf.ID, config string) (nf.Function, nf.RequestGen) {
	t.Helper()
	factory, _ := server.FnTable(id)
	fn, gen, err := factory(config)
	if err != nil {
		t.Fatalf("%v %q: %v", id, config, err)
	}
	return fn, gen
}

// configs lists id's default configuration "" and every named one.
func configs(id nf.ID) []string {
	_, names := server.FnTable(id)
	return append([]string{""}, names...)
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

// TestEveryFunctionRegistered: the server's function table has a row for
// every function of nf.All whose factory builds that function with a
// generator, and each row names at least one configuration besides "".
func TestEveryFunctionRegistered(t *testing.T) {
	for _, id := range nf.All {
		factory, names := server.FnTable(id)
		if factory == nil {
			t.Fatalf("%v: no factory", id)
		}
		if len(names) == 0 {
			t.Errorf("%v: no named configuration", id)
		}
		if fn, gen := build(t, id, ""); fn.ID() != id || gen == nil {
			t.Errorf("row %v built %v with generator %v", id, fn.ID(), gen)
		}
	}
}

func TestGeneratorsProduceAcceptedRequests(t *testing.T) {
	for _, id := range nf.All {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			fn, gen := build(t, id, "")
			if fn.ID() != id {
				t.Fatalf("function reports ID %v", fn.ID())
			}
			rng := rng.Stream(7, rng.Payload, 0)
			for i := 0; i < iterationsFor(id); i++ {
				req := gen.NextInto(&rng, nil)
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
		fn, gen := build(t, id, "")
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
			req := gen.NextInto(&rng, nil)
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
		fnA, gen := build(t, id, "")
		fnB, _ := build(t, id, "")
		rng := rng.Stream(9, rng.Payload, 0)
		// Drive A hard, then check a fresh request produces the same
		// first response on B as a brand-new third instance.
		var reqs [][]byte
		for i := 0; i < 200; i++ {
			req := gen.NextInto(&rng, nil)
			reqs = append(reqs, req)
			if _, err := fnA.Process(req); err != nil {
				t.Fatal(err)
			}
		}
		fnC, _ := build(t, id, "")
		respB, errB := fnB.Process(reqs[0])
		respC, errC := fnC.Process(reqs[0])
		if (errB == nil) != (errC == nil) || !bytes.Equal(respB, respC) {
			t.Errorf("%v: fresh instances disagree (state leaked through the factory)", id)
		}
	}
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, id := range nf.All {
		_, genA := build(t, id, "")
		_, genB := build(t, id, "")
		ra := rng.Stream(4, rng.Payload, 0)
		rb := rng.Stream(4, rng.Payload, 0)
		for i := 0; i < 20; i++ {
			if !bytes.Equal(genA.NextInto(&ra, nil), genB.NextInto(&rb, nil)) {
				t.Errorf("%v: generators not deterministic per seed", id)
				break
			}
		}
	}
}

func TestProcessDoesNotMutateRequest(t *testing.T) {
	for _, id := range nf.All {
		fn, gen := build(t, id, "")
		rng := rng.Stream(5, rng.Payload, 0)
		for i := 0; i < 10; i++ {
			req := gen.NextInto(&rng, nil)
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

// TestNextIntoMatchesNext holds every generator in every configuration to
// the buffer half of the nf.RequestGen contract: rendered into a recycled
// buffer full of stale bytes, each request equals the one rendered into a
// nil buffer from the same state, and both renders leave the stream at the
// same point. A small first buffer exercises the allocating fallback; the
// largest request seen so far is recycled after that.
func TestNextIntoMatchesNext(t *testing.T) {
	for _, id := range nf.All {
		t.Run(id.String(), func(t *testing.T) {
			for _, config := range configs(id) {
				_, gen := build(t, id, config)
				ra := rng.Stream(11, rng.Payload, 0)
				rb := ra
				buf := make([]byte, 0, 16)
				for i := 0; i < iterationsFor(id); i++ {
					stale := buf[:cap(buf)]
					for j := range stale {
						stale[j] = 0xAA
					}
					got := gen.NextInto(&rb, buf)
					want := gen.NextInto(&ra, nil)
					if !bytes.Equal(got, want) {
						t.Fatalf("%q request %d: stale-buffer render differs from the nil-buffer one (%d vs %d bytes)", config, i, len(got), len(want))
					}
					if ra != rb {
						t.Fatalf("%q request %d: the two renders made different draws", config, i)
					}
					if cap(got) > cap(buf) {
						buf = got[:0]
					}
				}
			}
		})
	}
}

// TestNextLenMatchesNext holds every generator in every configuration to
// the length half of the contract: on each request's own stream, NextLen
// returns the length of the request NextInto renders from the same state.
// The keys include (1, 3909) and (1, 494557), whose REM filler draws
// redraw.
func TestNextLenMatchesNext(t *testing.T) {
	seqs := []uint64{3909, 494557}
	for seq := uint64(0); seq < 60; seq++ {
		seqs = append(seqs, seq)
	}
	for _, id := range nf.All {
		for _, config := range configs(id) {
			_, gen := build(t, id, config)
			for _, seq := range seqs {
				ra := rng.Stream(1, rng.Payload, seq)
				rb := ra
				if got, want := gen.NextLen(&rb), len(gen.NextInto(&ra, nil)); got != want {
					t.Fatalf("%v %q request %d: NextLen %d, NextInto %d bytes", id, config, seq, got, want)
				}
			}
		}
	}
}

// FuzzGeneratorContract checks the whole nf.RequestGen contract on
// arbitrary (function, config, seed, request) keys: NextLen's length is
// NextInto's, and a render into a stale buffer equals the nil-buffer
// render byte for byte and draw for draw.
func FuzzGeneratorContract(f *testing.F) {
	type key struct {
		id     nf.ID
		config string
	}
	var keys []key
	gens := map[key]nf.RequestGen{}
	for _, id := range nf.All {
		for _, config := range configs(id) {
			k := key{id, config}
			keys = append(keys, k)
			_, gens[k] = build(f, id, config)
		}
	}
	f.Add(uint8(nf.REM), uint8(0), int64(1), uint64(3909))
	f.Add(uint8(nf.KVS), uint8(2), int64(1), uint64(7))
	f.Add(uint8(nf.BM25), uint8(1), int64(-5), uint64(0))
	buf := make([]byte, 0, 8192)
	f.Fuzz(func(t *testing.T, fn, config uint8, seed int64, seq uint64) {
		id := nf.All[int(fn)%len(nf.All)]
		names := configs(id)
		k := key{id, names[int(config)%len(names)]}
		gen := gens[k]
		r := rng.Stream(seed, rng.Payload, seq)
		rl, rs := r, r
		want := gen.NextInto(&r, nil)
		if n := gen.NextLen(&rl); n != len(want) {
			t.Fatalf("%v %q: NextLen %d, NextInto %d bytes", k.id, k.config, n, len(want))
		}
		stale := buf[:cap(buf)]
		for i := range stale {
			stale[i] = byte(i) | 0x80
		}
		if got := gen.NextInto(&rs, buf); !bytes.Equal(got, want) || rs != r {
			t.Fatalf("%v %q: stale-buffer render differs from the nil-buffer one", k.id, k.config)
		}
	})
}
