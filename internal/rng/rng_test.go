package rng

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testSeeds are the seeds the exactness tests cover: every edge of
// rngSource.Seed's reduction modulo 2**31-1 (zero and its replacement
// 89482311, the modulus and its multiples, the int64 extremes) plus a
// spread of ordinary seeds, 500 or more in all.
func testSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 89482311, -89482311,
		m, -m, m - 1, -(m - 1), m + 1, -(m + 1),
		2 * m, -2 * m, 3 * m, -3 * m, 1 << 31, -1 << 31,
		1 << 62, -1 << 62, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		m * (math.MaxInt64 / m), -m * (math.MaxInt64 / m),
	}
	gen := rand.New(rand.NewSource(20240601))
	for len(seeds) < 520 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	return seeds
}

func TestSourceMatchesStd(t *testing.T) {
	const draws = 5000
	for _, seed := range testSeeds() {
		got := newSource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < draws; i++ {
			if i%3 == 0 {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
				}
				continue
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// TestSeededState compares the register itself, not only the stream: the
// seeded register of a source equals the one rewound out of a fresh std
// source, and reseeding a used source resets tap, feed and every word.
func TestSeededState(t *testing.T) {
	used := newSource(7)
	for i := 0; i < 1000; i++ {
		used.Uint64()
	}
	for _, seed := range testSeeds() {
		want := seededRegister(rand.NewSource(seed).(rand.Source64))
		s := newSource(seed)
		if s.vec != want || s.tap != 0 || s.feed != regLen-regTap {
			t.Fatalf("seed %d: seeded state differs from math/rand's", seed)
		}
		used.Seed(seed)
		if *used != *s {
			t.Fatalf("seed %d: reseeding a used source left stale state", seed)
		}
	}
}

// schrage is math/rand's seedrand, Schrage's method as written there.
func schrage(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSeedrandMatchesSchrage checks the Mersenne fold against math/rand's
// division at the range's edges, around multiples of Q, and at a million
// random points.
func TestSeedrandMatchesSchrage(t *testing.T) {
	xs := []int32{1, 2, 44487, 44488, 44489, int32max - 2, int32max - 1, 89482311}
	for k := int32(1); k < 48271; k += 997 {
		xs = append(xs, k*44488-1, k*44488, k*44488+1)
	}
	gen := rand.New(rand.NewSource(5))
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, 1+gen.Int31n(int32max-1))
	}
	for _, x := range xs {
		if g, w := seedrand(x), schrage(x); g != w {
			t.Fatalf("seedrand(%d) = %d, math/rand %d", x, g, w)
		}
	}
}

// refPick is Pick written the plain way, one Intn per byte.
func refPick(r *rand.Rand, b []byte, alphabet string) {
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
}

// alphabetOf returns an alphabet of n bytes.
func alphabetOf(n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(byte(i*7 + i>>8))
	}
	return sb.String()
}

// countSource counts the draws a reference rand.Rand makes, so a test can
// assert that its data really exercises Intn's redraw.
type countSource struct {
	rand.Source
	draws int
}

func (s *countSource) Int63() int64 { s.draws++; return s.Source.Int63() }

// TestPickAlphabets checks Pick against the Intn loop over power-of-two and
// other alphabet lengths, with every request split across several calls
// at varying points. The 2**20+1 alphabet redraws about one draw in 2,000,
// so its rows assert that redraws happened.
func TestPickAlphabets(t *testing.T) {
	for _, n := range []int{1, 2, 3, 45, 62, 64, 1<<20 + 1} {
		alphabet := alphabetOf(n)
		redraws := 0
		for seed := int64(0); seed < 60; seed++ {
			got := New(seed)
			cs := &countSource{Source: rand.NewSource(seed)}
			want := rand.New(cs)
			split := rand.New(rand.NewSource(^seed))
			for req := 0; req < 8; req++ {
				total := split.Intn(3000)
				a, b := make([]byte, total), make([]byte, total)
				for lo := 0; lo < total; {
					hi := min(total, lo+split.Intn(700))
					got.Pick(a[lo:hi], alphabet)
					lo = hi
				}
				before := cs.draws
				refPick(want, b, alphabet)
				redraws += cs.draws - before - total
				if !bytes.Equal(a, b) {
					t.Fatalf("n %d seed %d request %d: Pick bytes differ from Intn", n, seed, req)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("n %d seed %d: next draw %d, Intn reference %d", n, seed, g, w)
			}
		}
		if n == 1<<20+1 && redraws == 0 {
			t.Fatalf("n %d: no redraw exercised", n)
		}
	}
}

// TestPickPanicsLikeIntn: an empty alphabet panics as Intn(0) does, but
// only when there is a byte to pick.
func TestPickPanicsLikeIntn(t *testing.T) {
	New(1).Pick(nil, "")
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with an empty alphabet did not panic")
		}
	}()
	New(1).Pick(make([]byte, 1), "")
}

// force writes the register so that the next draws of s carry vs[0],
// vs[1], ... in the 31 bits Int31n keeps. The bits it drops, the low word
// and bit 63 (Int63 clears it), carry noise. Consecutive draws never read a
// word an earlier one of them wrote, for fewer than regLen-regTap draws.
func force(s *source, vs []int64) {
	tap, feed := s.tap, s.feed
	for k, v := range vs {
		tap, feed = (tap+regLen-1)%regLen, (feed+regLen-1)%regLen
		x := v<<32 | int64(uint32(0x9e3779b9*(k+1)))
		if k%2 == 1 {
			x |= math.MinInt64
		}
		s.vec[feed] = x - s.vec[tap]
	}
}

// TestPickAtBound forces the draws Int31n decides at its rejection bound:
// the largest value it accepts and the two above it, which it redraws. A
// natural stream meets them about once in 2**31 draws. The forced draws sit
// on both sides of tap and feed wraps, and the request is split across
// calls; the reference must really make the forced draws and redraws.
func TestPickAtBound(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 45, 62, 64, 1000, 1<<20 + 1} {
		alphabet := alphabetOf(n)
		bound := int64(int32max - (1<<31)%n)
		for _, order := range [][]int64{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}} {
			var vs []int64
			redraws := 0
			for _, d := range order {
				if v := bound + d; v <= int32max {
					vs = append(vs, v)
					if d > 0 {
						redraws++
					}
				}
			}
			for _, skip := range []int{0, 1, 332, 333, 334, 605, 606, 607, 1000} {
				s := newSource(int64(n)<<16 ^ int64(skip))
				for k := 0; k < skip; k++ {
					s.Uint64()
				}
				force(s, vs)
				chk := *s
				for k, v := range vs {
					if g := chk.Int63() >> 32; g != v {
						t.Fatalf("n %d skip %d: forced draw %d is %d, want %d", n, skip, k, g, v)
					}
				}
				ref := *s
				cs := &countSource{Source: &ref}
				want := rand.New(cs)
				a, b := make([]byte, 8), make([]byte, 8)
				s.pick(a[:1], alphabet)
				s.pick(a[1:], alphabet)
				refPick(want, b, alphabet)
				if cs.draws < len(b)+redraws {
					t.Fatalf("n %d skip %d %v: reference made %d draws, want at least %d", n, skip, order, cs.draws, len(b)+redraws)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("n %d skip %d %v: pick bytes %v, Intn %v", n, skip, order, a, b)
				}
				if g, w := s.Int63(), want.Int63(); g != w {
					t.Fatalf("n %d skip %d %v: next draw %d, Intn reference %d", n, skip, order, g, w)
				}
			}
		}
	}
}

// TestSkipMatchesPick holds Skip to Pick on the register itself: after
// every request length from 0 to 5,000, a source that picked and one that
// skipped hold the same words, tap and feed. The requests run back to back,
// so they start at every phase of the register and cross many tap and feed
// wraps. The 2**20+1 alphabet redraws about one draw in 2,000; an Intn
// reference alongside asserts that redraws happened.
func TestSkipMatchesPick(t *testing.T) {
	for _, n := range []int{1, 62, 1<<20 + 1} {
		alphabet := alphabetOf(n)
		picked, skipped := New(int64(n)), New(int64(n))
		cs := &countSource{Source: rand.NewSource(int64(n))}
		want := rand.New(cs)
		buf := make([]byte, 5000)
		total := 0
		for k := 0; k <= len(buf); k++ {
			picked.Pick(buf[:k], alphabet)
			skipped.Skip(k, n)
			if *picked.src != *skipped.src {
				t.Fatalf("n %d: registers differ after a %d-byte request", n, k)
			}
			if n != 1<<20+1 {
				continue
			}
			refPick(want, buf[:k], alphabet)
			total += k
		}
		if g, w := skipped.Int63(), picked.Int63(); g != w {
			t.Fatalf("n %d: next draw after Skip %d, after Pick %d", n, g, w)
		}
		if n == 1<<20+1 && cs.draws == total {
			t.Fatalf("n %d: no redraw exercised", n)
		}
	}
}

// TestSkipRedrawSeeds skips across the natural redraws of REM's 62-byte
// filler: draw #456 of seed 1284911 and #852 of seed 1260503 exceed
// Intn(62)'s bound. Requests of every length up to 1,000 start at each
// seed, split in two at varying points, and must end where the Intn loop
// ends, the reference having really redrawn.
func TestSkipRedrawSeeds(t *testing.T) {
	alphabet := alphabetOf(62)
	for _, seed := range []int64{1284911, 1260503} {
		redrawn := false
		for k := 0; k <= 1000; k++ {
			got := New(seed)
			cs := &countSource{Source: rand.NewSource(seed)}
			want := rand.New(cs)
			got.Skip(k/3, len(alphabet))
			got.Skip(k-k/3, len(alphabet))
			refPick(want, make([]byte, k), alphabet)
			redrawn = redrawn || cs.draws > k
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d len %d: next draw %d, Intn reference %d", seed, k, g, w)
			}
		}
		if !redrawn {
			t.Fatalf("seed %d: the reference no longer redraws", seed)
		}
	}
}

// TestSkipAtBound forces the draws Int31n decides at its rejection bound,
// as TestPickAtBound does, and holds Skip to Pick and the Intn loop on
// them: the same register afterwards and the same next draw.
func TestSkipAtBound(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 45, 62, 64, 1000, 1<<20 + 1} {
		alphabet := alphabetOf(n)
		bound := int64(int32max - (1<<31)%n)
		for _, order := range [][]int64{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}} {
			var vs []int64
			for _, d := range order {
				if v := bound + d; v <= int32max {
					vs = append(vs, v)
				}
			}
			for _, skip := range []int{0, 1, 332, 333, 334, 605, 606, 607, 1000} {
				s := newSource(int64(n)<<16 ^ int64(skip))
				for k := 0; k < skip; k++ {
					s.Uint64()
				}
				force(s, vs)
				picked, ref := *s, *s
				want := rand.New(&ref)
				s.skip(1, n)
				s.skip(7, n)
				picked.pick(make([]byte, 8), alphabet)
				refPick(want, make([]byte, 8), alphabet)
				if *s != picked {
					t.Fatalf("n %d skip %d %v: Skip and Pick leave different registers", n, skip, order)
				}
				if g, w := s.Int63(), want.Int63(); g != w {
					t.Fatalf("n %d skip %d %v: next draw %d, Intn reference %d", n, skip, order, g, w)
				}
			}
		}
	}
}

// TestSkipPanicsLikePick: an invalid alphabet length panics, but only when
// there is a byte to skip.
func TestSkipPanicsLikePick(t *testing.T) {
	New(1).Skip(0, 0)
	New(1).Skip(-1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Skip with an empty alphabet did not panic")
		}
	}()
	New(1).Skip(1, 0)
}

// TestMethodMix interleaves Pick with the math/rand methods a generator
// calls, Read included: rand.Rand buffers Read's leftover bytes, and Pick
// draws straight from the source between Reads, as Intn does.
func TestMethodMix(t *testing.T) {
	alphabet := alphabetOf(62)
	for _, seed := range testSeeds()[:120] {
		got := New(seed)
		want := rand.New(rand.NewSource(seed))
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		for step := 0; step < 200; step++ {
			var g, w float64
			switch op := ops.Intn(8); op {
			case 0:
				g, w = float64(got.Intn(1000)), float64(want.Intn(1000))
			case 1:
				g, w = float64(got.Int31n(77)), float64(want.Int31n(77))
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			case 4:
				g, w = got.NormFloat64(), want.NormFloat64()
			case 5:
				pg, pw := got.Perm(9), want.Perm(9)
				for i := range pg {
					if pg[i] != pw[i] {
						t.Fatalf("seed %d step %d: Perm differs", seed, step)
					}
				}
			case 6:
				k := ops.Intn(13)
				a, b := make([]byte, k), make([]byte, k)
				got.Read(a)
				want.Read(b)
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d step %d: Read differs", seed, step)
				}
			default:
				k := ops.Intn(100)
				a, b := make([]byte, k), make([]byte, k)
				got.Pick(a, alphabet)
				refPick(want, b, alphabet)
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d step %d: Pick differs from Intn", seed, step)
				}
			}
			if g != w {
				t.Fatalf("seed %d step %d: %v, math/rand %v", seed, step, g, w)
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: next draw %d, math/rand %d", seed, g, w)
		}
	}
}

// recordSource records the draws a reference rand.Rand makes, so a test
// can tell which of ExpFloat64's branches a call took.
type recordSource struct {
	rand.Source
	draws []int64
}

func (s *recordSource) Int63() int64 {
	v := s.Source.Int63()
	s.draws = append(s.draws, v)
	return v
}

// TestExpFloat64MatchesMathRand holds ExpFloat64 to math/rand's over 8
// seeds × 100,000 draws, each followed now and then by a Float64 through
// the embedded rand.Rand, so the concrete and the interface paths share
// one stream. Its first draw tells a call's branch: j >= ke[j&0xFF] leaves
// the fast path, for the tail when j&0xFF == 0 and for the rejection test
// otherwise; both must be hit.
func TestExpFloat64MatchesMathRand(t *testing.T) {
	const draws = 100_000
	tails, rejections := 0, 0
	for _, seed := range []int64{0, 1, 2, -1, 7919, 1 << 40, math.MinInt64, 20240601} {
		got := New(seed)
		rec := &recordSource{Source: rand.NewSource(seed)}
		want := rand.New(rec)
		ops := rand.New(rand.NewSource(^seed))
		for i := 0; i < draws; i++ {
			rec.draws = rec.draws[:0]
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("seed %d draw %d: ExpFloat64 %v, math/rand %v", seed, i, g, w)
			}
			if j := uint32(rec.draws[0] >> 31); j >= ke[j&0xFF] {
				if j&0xFF == 0 {
					tails++
				} else {
					rejections++
				}
			}
			if ops.Intn(4) == 0 {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
				}
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: next draw %d, math/rand %d", seed, g, w)
		}
	}
	if tails == 0 || rejections == 0 {
		t.Fatalf("branches not exercised: %d tails, %d rejection tests", tails, rejections)
	}
}

// TestIntnMatchesMathRand holds Intn to math/rand's for a power of two, for
// bounds that redraw often (2**30+1 rejects almost half the draws) and for
// one past int32, which math/rand serves through Int63n.
func TestIntnMatchesMathRand(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 1024, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<40 + 3} {
		for _, seed := range testSeeds()[:40] {
			got := New(seed)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("n %d seed %d draw %d: Intn %d, math/rand %d", n, seed, i, g, w)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("n %d seed %d: next draw %d, math/rand %d", n, seed, g, w)
			}
		}
	}
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

// FuzzExpFloat64 skips a fuzzed number of draws, then holds k ExpFloat64
// calls, interleaved with Float64 on a fuzzed bit mask, to math/rand's.
func FuzzExpFloat64(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(100), uint64(0))
	f.Add(int64(-1), uint16(607), uint16(607), uint64(0xaaaa))
	f.Add(int64(20240601), uint16(3), uint16(4000), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, skip, k uint16, mask uint64) {
		got := New(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < int(skip)%2048; i++ {
			got.Int63()
			want.Int63()
		}
		for i := 0; i < int(k)%8192; i++ {
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("draw %d: ExpFloat64 %v, math/rand %v", i, g, w)
			}
			if mask>>(i%64)&1 == 1 {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("draw %d: Float64 %v, math/rand %v", i, g, w)
				}
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("next draw %d, math/rand %d", g, w)
		}
	})
}

// FuzzPick renders one request in three Pick calls split at fuzzed points
// and holds it to the Intn loop, bytes and next draw.
func FuzzPick(f *testing.F) {
	f.Add(int64(1), uint16(62), uint16(100), uint16(300), uint16(700))
	f.Add(int64(1284911), uint16(62), uint16(400), uint16(50), uint16(500))
	f.Add(int64(0), uint16(1), uint16(0), uint16(0), uint16(10))
	f.Add(int64(-1), uint16(64), uint16(607), uint16(607), uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, n, a, b, c uint16) {
		alphabet := alphabetOf(1 + int(n)%4096)
		parts := []int{int(a) % 2048, int(b) % 2048, int(c) % 2048}
		got := New(seed)
		want := rand.New(rand.NewSource(seed))
		var out []byte
		for _, k := range parts {
			p := make([]byte, k)
			got.Pick(p, alphabet)
			out = append(out, p...)
		}
		ref := make([]byte, len(out))
		refPick(want, ref, alphabet)
		if !bytes.Equal(out, ref) {
			t.Fatalf("Pick bytes differ from Intn")
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("next draw %d, Intn reference %d", g, w)
		}
	})
}

// FuzzSkip skips one request in three calls split at fuzzed points and
// holds it to the Intn loop over the same bytes: the next draw must agree.
func FuzzSkip(f *testing.F) {
	f.Add(int64(1), uint16(62), uint16(100), uint16(300), uint16(700))
	f.Add(int64(1284911), uint16(62), uint16(400), uint16(50), uint16(500))
	f.Add(int64(1260503), uint16(62), uint16(852), uint16(1), uint16(1))
	f.Add(int64(0), uint16(1), uint16(0), uint16(0), uint16(10))
	f.Add(int64(-1), uint16(64), uint16(607), uint16(607), uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, n, a, b, c uint16) {
		alphabet := alphabetOf(1 + int(n)%4096)
		parts := []int{int(a) % 2048, int(b) % 2048, int(c) % 2048}
		got := New(seed)
		want := rand.New(rand.NewSource(seed))
		total := 0
		for _, k := range parts {
			got.Skip(k, len(alphabet))
			total += k
		}
		refPick(want, make([]byte, total), alphabet)
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("next draw %d, Intn reference %d", g, w)
		}
	})
}

var sink byte

// BenchmarkPick renders 700 bytes, an average REM request, from a 62-byte
// alphabet, the length of REM's filler; BenchmarkIntnLoop is the same fill
// through rand.Rand's Intn.
func BenchmarkPick(b *testing.B) {
	r := New(1)
	buf := make([]byte, 700)
	alphabet := alphabetOf(62)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Pick(buf, alphabet)
	}
	sink = buf[0]
}

// BenchmarkSkip makes the draws of BenchmarkPick's fill without its bytes.
func BenchmarkSkip(b *testing.B) {
	r := New(1)
	b.SetBytes(700)
	for i := 0; i < b.N; i++ {
		r.Skip(700, 62)
	}
}

func BenchmarkIntnLoop(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	buf := make([]byte, 700)
	alphabet := alphabetOf(62)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refPick(r, buf, alphabet)
	}
	sink = buf[0]
}

var expSink float64

// BenchmarkExpFloat64 draws through the concrete source;
// BenchmarkStdExpFloat64 is the same stream through math/rand.
func BenchmarkExpFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		expSink += r.ExpFloat64()
	}
}

func BenchmarkStdExpFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		expSink += r.ExpFloat64()
	}
}

var srcSink rand.Source

// BenchmarkNewSource seeds a source; BenchmarkStdNewSource is the same
// through math/rand.
func BenchmarkNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srcSink = newSource(int64(i))
	}
}

func BenchmarkStdNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srcSink = rand.NewSource(int64(i))
	}
}
