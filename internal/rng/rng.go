// Package rng is a concrete copy of math/rand's default source, so hot
// per-byte draws inline instead of calling through the rand.Source
// interface.
//
// The source type reproduces math/rand's rngSource exactly: the same 607-word
// lagged-Fibonacci register, the same seeding and the same stream for every
// seed. math/rand v1's stream is frozen under the Go 1 compatibility
// promise, so a source and rand.NewSource(seed) draw identical values
// forever. Rand pairs a *rand.Rand with its source: the hot draws (Pick's
// bytes, ExpFloat64's service jitter and gaps, Intn's dispatch choices) run
// on the concrete source, and every other distribution still runs through
// math/rand on the same stream.
package rng

import (
	"math/bits"
	"math/rand"
)

const (
	regLen   = 607
	regTap   = 273
	int32max = 1<<31 - 1
)

// cooked is the table rngSource XORs into its seeded register
// (math/rand's rngCooked). It is derived from math/rand itself rather than
// copied: rewinding a fresh std source gives its seeded register, and
// XORing out that seed's seedrand chain leaves the table.
var cooked = deriveCooked()

func deriveCooked() [regLen]int64 {
	const seed = 1
	c := seededRegister(rand.NewSource(seed).(rand.Source64))
	seedChain(seed, &c, &c)
	return c
}

// seededRegister returns the register a freshly seeded std source holds,
// consuming its first regLen draws. Those draws are exactly the register
// after regLen steps: feed visits every word once, and each step's result
// is the word it writes. Each step added vec[tap] into vec[feed], so
// undoing them newest first, with the same indices, restores the seeded
// register; after regLen steps tap and feed are back where Seed put them.
func seededRegister(src rand.Source64) (vec [regLen]int64) {
	feed := regLen - regTap
	for k := 0; k < regLen; k++ {
		feed--
		if feed < 0 {
			feed += regLen
		}
		vec[feed] = int64(src.Uint64())
	}
	tap, feed := 0, regLen-regTap
	for k := 0; k < regLen; k++ {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%regLen, (feed+1)%regLen
	}
	return
}

// seedrand is x[n+1] = 48271 * x[n] mod (2**31 - 1), for 0 < x < 2**31-1
// (a seed's chain never leaves that range). math/rand computes it with
// Schrage's division; here the 47-bit product folds modulo the Mersenne
// prime instead, which gives the same value and keeps the chain that
// seeding walks ~1,800 steps deep free of divides.
func seedrand(x int32) int32 {
	const A = 48271
	t := uint64(x) * A
	t = t&int32max + t>>31
	if t >= int32max {
		t -= int32max
	}
	return int32(t)
}

// seedChain sets dst[i] = src[i] ^ u[i], where u is the seedrand chain
// rngSource.Seed XORs into the register.
func seedChain(seed int64, dst, src *[regLen]int64) {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < regLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			dst[i] = src[i] ^ u
		}
	}
}

// source is math/rand's rngSource as a concrete type. It implements
// rand.Source64 and draws the same stream as rand.NewSource for every seed.
type source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [regLen]int64 // current feedback register
}

// newSource returns a source seeded as rand.NewSource(seed).
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed initializes the register exactly as rngSource.Seed does.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = regLen - regTap
	seedChain(seed, &s.vec, &cooked)
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// int31n is rand.Rand's Int31n for n > 0: a mask for a power of two, else
// a redraw above the largest multiple of n below 2**31.
func (s *source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.Int63()>>32) & (n - 1)
	}
	max := int32(int32max - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// pick sets b[i] = alphabet[r.Intn(len(alphabet))] for every i, where r is
// a rand.Rand over s: the same bytes and the same draws, redraws included,
// for 1 <= len(alphabet) < 2**31. Like the Intn loop, it panics on an
// empty alphabet only when b is not empty.
//
// Int31n keeps the top 31 bits v of a draw, redraws while v exceeds the
// largest multiple of n below 2**31 (less one), and returns v % n. Here
// tap and feed live in locals, the loop runs in segments between register
// wraps, and v % n is Lemire's fastmod: with m = ceil(2**64/n), v % n is
// the high word of (m*v mod 2**64) * n, exactly, for 32-bit v and n.
func (s *source) pick(b []byte, alphabet string) {
	if len(b) == 0 {
		return
	}
	if len(alphabet) == 0 || len(alphabet) > int32max {
		panic("rng: invalid alphabet length for Pick")
	}
	n := uint64(len(alphabet))
	m := ^uint64(0)/n + 1 // wraps to 0 for n = 1, where v % 1 = 0 anyway
	bound := uint32(int32max - (1<<31)%n)
	tap, feed := s.tap, s.feed
	i := 0
	for i < len(b) {
		if tap == 0 {
			tap = regLen
		}
		if feed == 0 {
			feed = regLen
		}
		// One segment: the next k draws walk tap and feed down to the
		// first wrap. The two windows may overlap; stepping them downward
		// in place is exactly Uint64's order. ts[:len(fs)] lets the
		// compiler drop the bounds checks.
		k := min(tap, feed)
		fs, ts := s.vec[feed-k:feed], s.vec[tap-k:tap]
		ts = ts[:len(fs)]
		j := len(fs) - 1
		for ; j >= 0 && i < len(b); j-- {
			x := fs[j] + ts[j]
			fs[j] = x
			v := uint32(uint64(x) << 1 >> 33)
			if v > bound {
				continue
			}
			hi, _ := bits.Mul64(m*uint64(v), n)
			b[i] = alphabet[hi]
			i++
		}
		used := len(fs) - 1 - j
		tap, feed = tap-used, feed-used
	}
	s.tap, s.feed = tap, feed
}

// skip makes the draws pick makes on n bytes over an alphabet of length
// alphabetLen, redraws included, without computing a byte. A skip needs
// only how many draws were rejected, not which: each segment makes at most
// as many draws as bytes remain, never one too many, and every rejected
// draw adds one more to make.
func (s *source) skip(n, alphabetLen int) {
	if n <= 0 {
		return
	}
	if alphabetLen <= 0 || alphabetLen > int32max {
		panic("rng: invalid alphabet length for Skip")
	}
	bound := uint32(int32max - (1<<31)%uint64(alphabetLen))
	tap, feed := s.tap, s.feed
	for n > 0 {
		if tap == 0 {
			tap = regLen
		}
		if feed == 0 {
			feed = regLen
		}
		k := min(tap, feed, n)
		fs, ts := s.vec[feed-k:feed], s.vec[tap-k:tap]
		ts = ts[:len(fs)]
		rejected := 0
		for j := len(fs) - 1; j >= 0; j-- {
			x := fs[j] + ts[j]
			fs[j] = x
			if uint32(uint64(x)<<1>>33) > bound {
				rejected++
			}
		}
		tap, feed = tap-k, feed-k
		n -= k - rejected
	}
	s.tap, s.feed = tap, feed
}

// Rand is a rand.Rand over a concrete source: every math/rand method draws
// from the same stream, and Pick renders bytes from it without an interface
// call per draw. rand.Rand keeps state between calls only for Read, and
// Read's buffered bytes are not source draws, so mixing Pick with any
// rand.Rand method, Read included, leaves the stream exactly as the per-byte
// Intn loop would.
type Rand struct {
	*rand.Rand
	src *source
}

// New returns a Rand drawing the stream of rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	src := newSource(seed)
	return &Rand{Rand: rand.New(src), src: src}
}

// Pick sets b[i] = alphabet[r.Intn(len(alphabet))] for every i: the same
// bytes and the same draws, redraws included, for 1 <= len(alphabet) <
// 2**31. Like the Intn loop, it panics on an empty alphabet only when b is
// not empty.
func (r *Rand) Pick(b []byte, alphabet string) { r.src.pick(b, alphabet) }

// ExpFloat64 returns rand.Rand's ExpFloat64 of the same stream: the same
// value and the same draws, the rare tail and rejection draws included,
// without an interface call per draw.
func (r *Rand) ExpFloat64() float64 { return r.src.expFloat64() }

// Intn returns rand.Rand's Intn(n) of the same stream: the same value and
// the same draws, redraws included. Like Intn, it panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 || n > int32max {
		return r.Rand.Intn(n)
	}
	return int(r.src.int31n(int32(n)))
}

// Skip makes exactly the draws Pick makes on n bytes over an alphabet of
// length alphabetLen, redraws included, and computes no byte: a caller that
// needs a request's draws but not its bytes keeps the stream in step. Like
// Pick, it panics on an invalid alphabet length only when n > 0.
func (r *Rand) Skip(n, alphabetLen int) { r.src.skip(n, alphabetLen) }
