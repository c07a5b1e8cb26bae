package rng

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
	"strings"
	"testing"
	"unsafe"
)

// consumers lists every Consumer.
var consumers = []Consumer{Jitter, Client, Payload, Dispatch, Fault, Chaos, Trace}

// testKeys are the keys the exactness tests cover: seed edges, every
// consumer, and indices from 0 to the top of their range.
func testKeys() []Rand {
	var keys []Rand
	for _, seed := range []int64{0, 1, 2, -1, math.MaxInt64, math.MinInt64, 20240601} {
		for _, c := range consumers {
			for _, index := range []uint64{0, 1, 7, 1023, 1<<56 - 1} {
				keys = append(keys, Stream(seed, c, index))
			}
		}
	}
	return keys
}

// TestStreamKnownAnswers pins the first draws of a few keys, so a change
// to the key derivation or to the generator is a visible diff.
func TestStreamKnownAnswers(t *testing.T) {
	for _, k := range []struct {
		seed  int64
		c     Consumer
		index uint64
		want  [3]uint64
	}{
		{1, Jitter, 0, [3]uint64{0x80621d8b6b7f87f8, 0x1b32fd182c20f25, 0xd674fa698d902e0c}},
		{1, Jitter, 1, [3]uint64{0x3993abdc747b0d71, 0xd186d8b11ea91e1b, 0xb09c47cd152150aa}},
		{2, Jitter, 0, [3]uint64{0xc292f7704c39e458, 0xb9ec201f07212506, 0x9e3889dff73740fe}},
		{1, Payload, 7, [3]uint64{0xcf342df1675a4955, 0xeb47ea22fbcff05e, 0xf0d48fdc58566d7e}},
		{-1, Trace, 1<<56 - 1, [3]uint64{0x13c2b3bb9090096b, 0xd2434590b50793ed, 0x8d1f1fb24810e21d}},
		{0, Client, 0, [3]uint64{0xc7cf0aec235a357a, 0xf3d771bf33d36379, 0x774512a6e030cd86}},
	} {
		r := Stream(k.seed, k.c, k.index)
		for i, w := range k.want {
			if g := r.Uint64(); g != w {
				t.Fatalf("key (%d, %d, %d) draw %d: %#x, want %#x", k.seed, k.c, k.index, i, g, w)
			}
		}
	}
	r := Stream(1, Client, 0)
	if g := r.Intn(1000); g != 665 {
		t.Fatalf("Intn(1000) = %d, want 665", g)
	}
	if g := r.Intn(62); g != 45 {
		t.Fatalf("Intn(62) = %d, want 45", g)
	}
	if g := r.Float64(); g != 0.30049121897634157 {
		t.Fatalf("Float64 = %v, want 0.30049121897634157", g)
	}
	if g := r.ExpFloat64(); g != 0.12340331559091106 {
		t.Fatalf("ExpFloat64 = %v, want 0.12340331559091106", g)
	}
	b := make([]byte, 11)
	if n, err := r.Read(b); n != 11 || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if want := "\x75\xc5\x23\xed\xd2\x1f\x58\x5d\x7e\x58\x48"; string(b) != want {
		t.Fatalf("Read bytes %x, want %x", b, want)
	}
}

// TestStreamsIndependent draws the first 4 outputs of every key of seeds
// 1–8, every consumer and indices 0–1023, and asserts that no value
// appears twice: no stream repeats another, nor another shifted by up to
// three draws. Streams derived as seed offsets fail this at once — with
// the SNIC station on seed+1 and the host on seed+2, seed s's host station
// drew seed s+1's SNIC stream, so adjacent seeds were not independent
// replications.
func TestStreamsIndependent(t *testing.T) {
	type key struct {
		seed  int64
		c     Consumer
		index uint64
	}
	seen := make(map[uint64]key, 8*len(consumers)*1024*4)
	for seed := int64(1); seed <= 8; seed++ {
		for _, c := range consumers {
			for index := uint64(0); index < 1024; index++ {
				r := Stream(seed, c, index)
				k := key{seed, c, index}
				for i := 0; i < 4; i++ {
					v := r.Uint64()
					if prev, dup := seen[v]; dup {
						t.Fatalf("keys %+v and %+v share the output %#x", prev, k, v)
					}
					seen[v] = k
				}
			}
		}
	}
}

// TestSourceMatchesStd holds a stream to the standard library: its draws
// are math/rand/v2's PCG seeded with the key's two words, and it is the
// 16-byte PCG itself.
func TestSourceMatchesStd(t *testing.T) {
	if s := unsafe.Sizeof(Rand{}); s != 16 {
		t.Fatalf("Rand is %d bytes, want 16", s)
	}
	for _, seed := range []int64{0, 1, -1, math.MinInt64, 20240601} {
		for _, c := range consumers {
			for _, index := range []uint64{0, 1, 1<<56 - 1} {
				got := Stream(seed, c, index)
				want := randv2.NewPCG(key(seed, c, index))
				for i := 0; i < 1000; i++ {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("key (%d, %d, %d) draw %d: %#x, PCG %#x", seed, c, index, i, g, w)
					}
				}
			}
		}
	}
}

// TestSeededState: rekeying a used stream in place makes it draw exactly
// what a fresh stream of the new key draws, and allocates nothing.
func TestSeededState(t *testing.T) {
	used := Stream(7, Client, 0)
	for i := 0; i < 1000; i++ {
		used.Uint64()
	}
	for _, fresh := range testKeys()[:50] {
		for seq := uint64(0); seq < 20; seq++ {
			used.Seed(int64(seq), Payload, seq*3)
			if fresh := Stream(int64(seq), Payload, seq*3); used != fresh {
				t.Fatalf("seq %d: rekeyed state differs from a fresh stream", seq)
			}
		}
		used = fresh
	}
	if a := testing.AllocsPerRun(100, func() { used.Seed(1, Payload, 99) }); a != 0 {
		t.Fatalf("Seed allocates %v times", a)
	}
}

// v1Source feeds math/rand (v1) the stream's draws shifted right by one,
// so its Int31 is the top 31 bits of a draw, as Intn's; it counts draws.
type v1Source struct {
	r     Rand
	draws int
}

func (s *v1Source) Int63() int64 { s.draws++; return int64(s.r.Uint64() >> 1) }
func (s *v1Source) Seed(int64)   { panic("v1Source: Seed") }

// refPick is Pick written the plain way: math/rand's Intn per byte over
// the same draws.
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

// TestIntnMatchesMathRand holds Intn to math/rand's Intn over the same
// draws, for a power of two, for bounds that redraw often (2**30+1
// rejects almost half the draws) and for the largest bound.
func TestIntnMatchesMathRand(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 1024, 1<<30 + 1, 1<<31 - 1} {
		for _, k := range testKeys()[:40] {
			got := k
			src := &v1Source{r: k}
			want := rand.New(src)
			for i := 0; i < 500; i++ {
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("n %d draw %d: Intn %d, math/rand %d", n, i, g, w)
				}
			}
			if got != src.r {
				t.Fatalf("n %d: Intn and math/rand made different draws", n)
			}
		}
	}
	for _, n := range []int{0, -1, 1 << 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r := Stream(1, Client, 0)
			r.Intn(n)
		}()
	}
}

// TestPickAlphabets checks Pick against the Intn loop over power-of-two
// and other alphabet lengths, with every request split across several
// calls at varying points. The 2**20+1 alphabet redraws about one draw in
// 2,000, so its rows assert that redraws happened.
func TestPickAlphabets(t *testing.T) {
	for _, n := range []int{1, 2, 3, 45, 62, 64, 1<<20 + 1} {
		alphabet := alphabetOf(n)
		redraws := 0
		for seed := int64(0); seed < 60; seed++ {
			got := Stream(seed, Payload, uint64(n))
			src := &v1Source{r: got}
			want := rand.New(src)
			split := rand.New(rand.NewSource(^seed))
			for req := 0; req < 8; req++ {
				total := split.Intn(3000)
				a, b := make([]byte, total), make([]byte, total)
				for lo := 0; lo < total; {
					hi := min(total, lo+split.Intn(700))
					got.Pick(a[lo:hi], alphabet)
					lo = hi
				}
				before := src.draws
				refPick(want, b, alphabet)
				redraws += src.draws - before - total
				if !bytes.Equal(a, b) {
					t.Fatalf("n %d seed %d request %d: Pick bytes differ from Intn", n, seed, req)
				}
			}
			if got != src.r {
				t.Fatalf("n %d seed %d: Pick and the Intn loop made different draws", n, seed)
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
	r := Stream(1, Payload, 0)
	r.Pick(nil, "")
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with an empty alphabet did not panic")
		}
	}()
	r.Pick(make([]byte, 1), "")
}

// The PCG's LCG constants (math/rand/v2's pcg.go) and DXSM's multiplier.
const (
	mulHi    = 2549297995355413924
	mulLo    = 4865540595714422341
	incHi    = 6364136223846793005
	incLo    = 1442695040888963407
	cheapMul = 0xda942042e4dd58b5
)

// mul128 returns a*b mod 2**128.
func mul128(ahi, alo, bhi, blo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(alo, blo)
	return hi + ahi*blo + alo*bhi, lo
}

// force rekeys r so that its next draw is x. The state after that draw
// gets low word 1, so DXSM multiplies by 1, and the high word that DXSM's
// two xorshifts and multiply (each invertible) map to x; the LCG step
// back from it, by the inverse multiplier, is r's new state.
func force(r *Rand, x uint64) {
	h := x ^ x>>48
	inv := uint64(cheapMul)
	for i := 0; i < 5; i++ { // Newton: each step doubles the correct bits
		inv *= 2 - cheapMul*inv
	}
	h *= inv
	h ^= h >> 32
	ihi, ilo := uint64(mulHi), uint64(mulLo)
	for i := 0; i < 6; i++ {
		phi, plo := mul128(mulHi, mulLo, ihi, ilo)
		tlo, borrow := bits.Sub64(2, plo, 0)
		thi, _ := bits.Sub64(0, phi, borrow)
		ihi, ilo = mul128(ihi, ilo, thi, tlo)
	}
	lo, borrow := bits.Sub64(1, incLo, 0)
	hi, _ := bits.Sub64(h, incHi, borrow)
	r.pcg.Seed(mul128(hi, lo, ihi, ilo))
}

// TestPickAtBound forces the draws Intn decides at its rejection bound:
// the largest value it accepts and the two above it, which it redraws. A
// natural stream meets them about once in 2**31 draws. Each forced draw
// opens a request split across two calls; the reference must really
// redraw, and both must end on the same state.
func TestPickAtBound(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 45, 62, 64, 1000, 1<<20 + 1} {
		alphabet := alphabetOf(n)
		bound := uint64(int32max - (1<<31)%n)
		for d := uint64(0); d < 3; d++ {
			v := bound + d
			if v > int32max {
				continue
			}
			for _, low := range []uint64{0, 1<<33 - 1, 0x9e3779b9} {
				s := Stream(int64(n), Payload, d)
				force(&s, v<<33|low)
				if chk := s; chk.Uint64()>>33 != v {
					t.Fatalf("n %d: forced draw is not %d", n, v)
				}
				src := &v1Source{r: s}
				want := rand.New(src)
				a, b := make([]byte, 8), make([]byte, 8)
				s.Pick(a[:1], alphabet)
				s.Pick(a[1:], alphabet)
				refPick(want, b, alphabet)
				if d > 0 && src.draws <= len(b) {
					t.Fatalf("n %d value %d: the reference did not redraw", n, v)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("n %d value %d: Pick bytes %v, Intn %v", n, v, a, b)
				}
				if s != src.r {
					t.Fatalf("n %d value %d: Pick and the Intn loop end on different states", n, v)
				}
			}
		}
	}
}

// TestMethodMix interleaves every method on one stream against references
// on a copy: math/rand/v2's Rand for the methods it has, math/rand's Intn
// over the same draws for Intn, the Intn loop for Pick, and little-endian
// draws for Read.
func TestMethodMix(t *testing.T) {
	alphabet := alphabetOf(62)
	for ki, k := range testKeys()[:120] {
		got, ref := k, k
		v2 := randv2.New(&ref)
		ops := rand.New(rand.NewSource(int64(ki) ^ 0x5eed))
		for step := 0; step < 200; step++ {
			var g, w float64
			switch op := ops.Intn(9); op {
			case 0:
				src := &v1Source{r: ref}
				g, w = float64(got.Intn(1000)), float64(rand.New(src).Intn(1000))
				ref = src.r
			case 1:
				g, w = got.Float64(), v2.Float64()
			case 2:
				g, w = got.ExpFloat64(), v2.ExpFloat64()
			case 3:
				g, w = got.NormFloat64(), v2.NormFloat64()
			case 4:
				g, w = float64(got.Float32()), float64(v2.Float32())
			case 5:
				g, w = float64(got.Int64N(1<<40+3)), float64(v2.Int64N(1<<40+3))
			case 6:
				g, w = float64(got.Uint64()), float64(v2.Uint64())
			case 7:
				n := ops.Intn(20)
				a, b := make([]byte, n), make([]byte, (n+7)/8*8)
				got.Read(a)
				for i := 0; i < len(b); i += 8 {
					binary.LittleEndian.PutUint64(b[i:], v2.Uint64())
				}
				if !bytes.Equal(a, b[:n]) {
					t.Fatalf("key %d step %d: Read %x, draws %x", ki, step, a, b[:n])
				}
			default:
				n := ops.Intn(100)
				a, b := make([]byte, n), make([]byte, n)
				got.Pick(a, alphabet)
				src := &v1Source{r: ref}
				refPick(rand.New(src), b, alphabet)
				ref = src.r
				if !bytes.Equal(a, b) {
					t.Fatalf("key %d step %d: Pick differs from Intn", ki, step)
				}
			}
			if g != w {
				t.Fatalf("key %d step %d: %v, reference %v", ki, step, g, w)
			}
		}
		if got != ref {
			t.Fatalf("key %d: methods and references made different draws", ki)
		}
	}
}

// recordSource records the draws a reference math/rand/v2 Rand makes, so
// a test can tell which of ExpFloat64's branches a call took.
type recordSource struct {
	r     *Rand
	draws []uint64
}

func (s *recordSource) Uint64() uint64 {
	v := s.r.Uint64()
	s.draws = append(s.draws, v)
	return v
}

// TestExpFloat64MatchesMathRand holds ExpFloat64 to math/rand/v2's over
// 8 keys × 100,000 draws, each followed now and then by a Float64, so the
// concrete and the interface paths share one stream. Its first draw tells
// a call's branch: j >= ke[i] leaves the fast path, for the tail when
// i == 0 and for the rejection test otherwise; both must be hit.
func TestExpFloat64MatchesMathRand(t *testing.T) {
	const draws = 100_000
	tails, rejections := 0, 0
	for _, seed := range []int64{0, 1, 2, -1, 7919, 1 << 40, math.MinInt64, 20240601} {
		got := Stream(seed, Jitter, 0)
		ref := got
		rec := &recordSource{r: &ref}
		want := randv2.New(rec)
		ops := rand.New(rand.NewSource(^seed))
		for i := 0; i < draws; i++ {
			rec.draws = rec.draws[:0]
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("seed %d draw %d: ExpFloat64 %v, math/rand/v2 %v", seed, i, g, w)
			}
			u := rec.draws[0]
			if j, i := uint32(u), uint8(u>>32); j >= ke[i] {
				if i == 0 {
					tails++
				} else {
					rejections++
				}
			}
			if ops.Intn(4) == 0 {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand/v2 %v", seed, i, g, w)
				}
			}
		}
		if got != ref {
			t.Fatalf("seed %d: ExpFloat64 and math/rand/v2 made different draws", seed)
		}
	}
	if tails == 0 || rejections == 0 {
		t.Fatalf("branches not exercised: %d tails, %d rejection tests", tails, rejections)
	}
}

// FuzzExpFloat64 makes a fuzzed number of draws on a fuzzed key, then
// holds k ExpFloat64 calls, interleaved with Float64 on a fuzzed bit mask,
// to math/rand/v2's.
func FuzzExpFloat64(f *testing.F) {
	f.Add(int64(1), uint64(0), uint16(0), uint16(100), uint64(0))
	f.Add(int64(-1), uint64(1<<56-1), uint16(607), uint16(607), uint64(0xaaaa))
	f.Add(int64(20240601), uint64(3), uint16(3), uint16(4000), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, index uint64, skip, k uint16, mask uint64) {
		got := Stream(seed, Jitter, index)
		ref := got
		want := randv2.New(&ref)
		for i := 0; i < int(skip)%2048; i++ {
			got.Uint64()
			want.Uint64()
		}
		for i := 0; i < int(k)%8192; i++ {
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("draw %d: ExpFloat64 %v, math/rand/v2 %v", i, g, w)
			}
			if mask>>(i%64)&1 == 1 {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("draw %d: Float64 %v, math/rand/v2 %v", i, g, w)
				}
			}
		}
		if got != ref {
			t.Fatal("ExpFloat64 and math/rand/v2 made different draws")
		}
	})
}

// FuzzPick renders one request in three Pick calls split at fuzzed points
// and holds it to the Intn loop, bytes and draws.
func FuzzPick(f *testing.F) {
	f.Add(int64(1), uint64(0), uint16(62), uint16(100), uint16(300), uint16(700))
	f.Add(int64(1), uint64(3909), uint16(62), uint16(400), uint16(50), uint16(700))
	f.Add(int64(0), uint64(1), uint16(1), uint16(0), uint16(0), uint16(10))
	f.Add(int64(-1), uint64(1<<56-1), uint16(64), uint16(607), uint16(607), uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, index uint64, n, a, b, c uint16) {
		alphabet := alphabetOf(1 + int(n)%4096)
		parts := []int{int(a) % 2048, int(b) % 2048, int(c) % 2048}
		got := Stream(seed, Payload, index)
		src := &v1Source{r: got}
		var out []byte
		for _, k := range parts {
			p := make([]byte, k)
			got.Pick(p, alphabet)
			out = append(out, p...)
		}
		ref := make([]byte, len(out))
		refPick(rand.New(src), ref, alphabet)
		if !bytes.Equal(out, ref) {
			t.Fatalf("Pick bytes differ from Intn")
		}
		if got != src.r {
			t.Fatal("Pick and the Intn loop made different draws")
		}
	})
}

var sink byte

// BenchmarkPick renders 700 bytes, an average REM request, from a 62-byte
// alphabet, the length of REM's filler; BenchmarkIntnLoop is the same fill
// one Intn call per byte.
func BenchmarkPick(b *testing.B) {
	r := Stream(1, Payload, 0)
	buf := make([]byte, 700)
	alphabet := alphabetOf(62)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Pick(buf, alphabet)
	}
	sink = buf[0]
}

func BenchmarkIntnLoop(b *testing.B) {
	r := Stream(1, Payload, 0)
	buf := make([]byte, 700)
	alphabet := alphabetOf(62)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range buf {
			buf[j] = alphabet[r.Intn(len(alphabet))]
		}
	}
	sink = buf[0]
}

var expSink float64

// BenchmarkExpFloat64 draws through the concrete generator;
// BenchmarkStdExpFloat64 is the same stream through math/rand/v2.
func BenchmarkExpFloat64(b *testing.B) {
	r := Stream(1, Jitter, 0)
	for i := 0; i < b.N; i++ {
		expSink += r.ExpFloat64()
	}
}

func BenchmarkStdExpFloat64(b *testing.B) {
	r := Stream(1, Jitter, 0)
	v2 := randv2.New(&r)
	for i := 0; i < b.N; i++ {
		expSink += v2.ExpFloat64()
	}
}

var streamSink Rand

// BenchmarkSeed rekeys a stream in place, as a client does per request.
func BenchmarkSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streamSink.Seed(1, Payload, uint64(i))
	}
}
