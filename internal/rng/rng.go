// Package rng gives every consumer of randomness in a run a stream of its
// own. Stream(seed, consumer, index) keys a math/rand/v2 PCG (PCG-DXSM:
// a 128-bit LCG with a 64-bit output permutation, 16 bytes of state) by
// the run seed, the kind of consumer and an index within it, so a
// station's jitter, the client's arrivals and request k's payload start
// from different states, whatever the seed (O'Neill, "PCG", 2014; Salmon
// et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011). Every
// state lies on the generator's one 2**128 cycle, so two streams can
// still overlap, but only with negligible probability: K streams of at
// most L draws each overlap with probability below about K²·L/2**128,
// 2**-48 for 2**24 streams of 2**32 draws.
//
// The draws a run makes per packet — Uint64, Float64, ExpFloat64, Intn and
// Pick — are concrete methods over the PCG, which inline instead of
// calling through the rand.Source interface. The rest of math/rand/v2
// (NormFloat64, Float32, Int64N) runs through a v2 *rand.Rand over the
// same stream.
package rng

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
)

const int32max = 1<<31 - 1

// Consumer names a kind of stream. With the run seed and an index it keys
// one stream; the index says which one of that kind.
type Consumer uint8

const (
	// Jitter draws one station's service times; index server·8 + station.
	Jitter Consumer = iota + 1
	// Client draws the traffic source's sizes, gaps and mix tags; index 0.
	Client
	// Payload draws one request's payload; index its sequence number.
	Payload
	// Dispatch draws a fleet ingress's power-of-two choices; index 0.
	Dispatch
	// Fault draws a server's injected Rx corruption; index the server.
	Fault
	// Chaos places a scenario's chaos windows; index 0.
	Chaos
	// Trace draws a datacenter trace's per-epoch rates; index 0.
	Trace
)

// mix is SplitMix64's output function: a bijection on uint64 in which
// every input bit flips each output bit with probability about 1/2.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// key derives a stream's 128-bit PCG state from its key. The consumer
// takes the top byte above the index, and x, y and the two Feistel rounds
// are bijections, so two keys with indices below 2**56 never share a
// state; every word depends on every key bit, so nearby seeds or indices
// land at unrelated points of the generator's 2**128 cycle.
func key(seed int64, c Consumer, index uint64) (hi, lo uint64) {
	x := mix(uint64(seed))
	y := mix(x ^ uint64(c)<<56 ^ index)
	hi = x ^ mix(y)
	lo = y ^ mix(hi)
	return hi, lo
}

// Rand is one keyed stream: a math/rand/v2 PCG, 16 bytes, held by value
// where its owner allows. Its zero value is a valid stream, but not a
// keyed one; build it with Stream or Seed.
type Rand struct{ pcg rand.PCG }

// Stream returns the stream keyed by (seed, c, index), for index < 2**56.
func Stream(seed int64, c Consumer, index uint64) Rand {
	var r Rand
	r.Seed(seed, c, index)
	return r
}

// Seed rekeys r in place: afterwards it draws exactly what
// Stream(seed, c, index) draws. It allocates nothing.
func (r *Rand) Seed(seed int64, c Consumer, index uint64) { r.pcg.Seed(key(seed, c, index)) }

// Uint64 returns a uniform 64-bit value; with it *Rand is a
// math/rand/v2 Source.
func (r *Rand) Uint64() uint64 { return r.pcg.Uint64() }

// Float64 returns a uniform float64 in [0, 1): math/rand/v2's Float64,
// the top 53 bits of one draw.
func (r *Rand) Float64() float64 { return float64(r.pcg.Uint64()<<11>>11) / (1 << 53) }

// NormFloat64 is math/rand/v2's NormFloat64 on r's stream.
func (r *Rand) NormFloat64() float64 { return rand.New(r).NormFloat64() }

// Float32 is math/rand/v2's Float32 on r's stream.
func (r *Rand) Float32() float32 { return rand.New(r).Float32() }

// Int64N is math/rand/v2's Int64N on r's stream; it panics if n <= 0.
func (r *Rand) Int64N(n int64) int64 { return rand.New(r).Int64N(n) }

// Read fills b with successive draws, eight bytes each, low byte first,
// and returns len(b), nil. A Rand keeps no buffer: a short tail takes the
// low bytes of one more draw and drops the rest, so each Read starts on a
// fresh draw.
func (r *Rand) Read(b []byte) (int, error) {
	n := len(b)
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.pcg.Uint64())
		b = b[8:]
	}
	if len(b) > 0 {
		x := r.pcg.Uint64()
		for i := range b {
			b[i] = byte(x)
			x >>= 8
		}
	}
	return n, nil
}

// Intn returns a uniform int in [0, n) for 0 < n < 2**31 and panics
// otherwise. It is math/rand's Int31n on the top 31 bits v of a draw: v
// masked for a power of two, else v % n, redrawn while v exceeds the
// largest multiple of n below 2**31, less one. math/rand/v2's IntN
// rejects at most one draw in 2**64/n, which no test reaches for a small
// n; this rejection, one draw in 2**31/((2**31) mod n), is one a test can
// find in a natural stream.
func (r *Rand) Intn(n int) int {
	if n <= 0 || n > int32max {
		panic("rng: invalid argument to Intn")
	}
	if n&(n-1) == 0 {
		return int(uint32(r.pcg.Uint64()>>33) & uint32(n-1))
	}
	bound := uint32(int32max - (1<<31)%uint32(n))
	v := uint32(r.pcg.Uint64() >> 33)
	for v > bound {
		v = uint32(r.pcg.Uint64() >> 33)
	}
	return int(v % uint32(n))
}

// Pick sets b[i] = alphabet[r.Intn(len(alphabet))] for every i: the same
// bytes and the same draws, redraws included, for 1 <= len(alphabet) <
// 2**31. Like the Intn loop, it panics on an invalid alphabet only when b
// is not empty.
//
// The generator lives in a local for the loop, and v % n is Lemire's
// fastmod: with m = ceil(2**64/n), v % n is the high word of
// (m*v mod 2**64) * n, exactly, for 32-bit v and n. A power of two has no
// rejection (its bound is 2**31-1) and fastmod equals the mask.
func (r *Rand) Pick(b []byte, alphabet string) {
	if len(b) == 0 {
		return
	}
	if len(alphabet) == 0 || len(alphabet) > int32max {
		panic("rng: invalid alphabet length for Pick")
	}
	n := uint64(len(alphabet))
	m := ^uint64(0)/n + 1 // wraps to 0 for n = 1, where v % 1 = 0 anyway
	bound := uint32(int32max - (1<<31)%n)
	p := r.pcg
	for i := 0; i < len(b); {
		v := uint32(p.Uint64() >> 33)
		if v > bound {
			continue
		}
		hi, _ := bits.Mul64(m*uint64(v), n)
		b[i] = alphabet[hi]
		i++
	}
	r.pcg = p
}
