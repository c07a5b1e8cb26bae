package compressfn

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"halsim/internal/rng"
)

// decompressRequest wraps compressed bytes into a decompress request.
func decompressRequest(compressed []byte) []byte {
	return append([]byte{OpDecompress}, compressed...)
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	f := NewFunc()
	src := SynthesizeCorpus(4096, 1)
	resp, err := f.Process(append([]byte{OpCompress}, src...))
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != 0 {
		t.Fatal("bad status")
	}
	back, err := f.Process(decompressRequest(resp[1:]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[1:], src) {
		t.Fatal("round trip through the function mismatched")
	}
}

func TestCorpusCompresses(t *testing.T) {
	src := SynthesizeCorpus(1<<16, 2)
	resp, err := NewFunc().Process(append([]byte{OpCompress}, src...))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(resp)-1) / float64(len(src))
	// The mozilla-like mix should land somewhere in (0.2, 0.8): it has
	// both strongly compressible and incompressible spans.
	if ratio < 0.1 || ratio > 0.85 {
		t.Fatalf("corpus compression ratio %.2f implausible", ratio)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a := SynthesizeCorpus(10000, 7)
	b := SynthesizeCorpus(10000, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("corpus must be deterministic per seed")
	}
	c := SynthesizeCorpus(10000, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
	if len(a) != 10000 {
		t.Fatalf("len = %d", len(a))
	}
}

func TestRatioAccounting(t *testing.T) {
	f := NewFunc()
	if f.Ratio() != 1 {
		t.Fatal("initial ratio should be 1")
	}
	src := bytes.Repeat([]byte("abc"), 1000)
	f.Process(append([]byte{OpCompress}, src...))
	if r := f.Ratio(); r >= 0.5 {
		t.Fatalf("repetitive ratio = %.2f, want < 0.5", r)
	}
	if f.BytesIn != 3000 {
		t.Fatalf("BytesIn = %d", f.BytesIn)
	}
}

// TestRatioAccumulates checks that BytesIn and BytesOut sum every compress
// request's body and output, and that decompressing leaves them alone.
func TestRatioAccumulates(t *testing.T) {
	f := NewFunc()
	var in, out uint64
	for _, src := range [][]byte{bytes.Repeat([]byte("ratio "), 10000), SynthesizeCorpus(4096, 3)} {
		resp, err := f.Process(append([]byte{OpCompress}, src...))
		if err != nil {
			t.Fatal(err)
		}
		in += uint64(len(src))
		out += uint64(len(resp) - 1)
		if f.BytesIn != in || f.BytesOut != out {
			t.Fatalf("BytesIn/BytesOut = %d/%d, want %d/%d", f.BytesIn, f.BytesOut, in, out)
		}
		if _, err := f.Process(decompressRequest(resp[1:])); err != nil {
			t.Fatal(err)
		}
		if f.BytesIn != in || f.BytesOut != out {
			t.Fatalf("decompress moved BytesIn/BytesOut to %d/%d", f.BytesIn, f.BytesOut)
		}
		if in == 60000 && out >= in/5 {
			t.Fatalf("repetitive body compressed %d -> %d, want > 5x", in, out)
		}
	}
	if r := f.Ratio(); r != float64(out)/float64(in) {
		t.Fatalf("Ratio() = %v, want %d/%d", r, out, in)
	}
}

func TestMalformed(t *testing.T) {
	f := NewFunc()
	if _, err := f.Process([]byte{OpCompress}); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
	if _, err := f.Process([]byte{0x99, 1, 2}); err != ErrBadOp {
		t.Fatalf("bad op: %v", err)
	}
	if _, err := f.Process([]byte{OpDecompress, 0xff, 0xff}); err == nil {
		t.Fatal("garbage decompress should fail")
	}
}

// roundTrip compresses src through Process, decompresses the result the
// same way, and returns the compressed size.
func roundTrip(t *testing.T, f *Func, src []byte) int {
	t.Helper()
	resp, err := f.Process(append([]byte{OpCompress}, src...))
	if err != nil {
		t.Fatalf("compress(%d bytes): %v", len(src), err)
	}
	back, err := f.Process(decompressRequest(resp[1:]))
	if err != nil {
		t.Fatalf("decompress(%d bytes): %v", len(src), err)
	}
	if !bytes.Equal(back[1:], src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(back)-1)
	}
	return len(resp) - 1
}

func TestRoundTripShapes(t *testing.T) {
	random := func(n int, seed int64) []byte {
		b := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(b)
		return b
	}
	allBytes := make([]byte, 256)
	for i := range allBytes {
		allBytes[i] = byte(i)
	}
	// A block repeated just inside the 32 KB window.
	block := random(1000, 2)
	far := slices.Concat(block, make([]byte, 32*1024-1500), block)
	// Random runs of repeated random chunks.
	r := rand.New(rand.NewSource(3))
	var runs []byte
	for len(runs) < 5000 {
		chunk := make([]byte, 1+r.Intn(40))
		r.Read(chunk)
		for k := 1 + r.Intn(10); k > 0; k-- {
			runs = append(runs, chunk...)
		}
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 200)
	// One Func for every shape: the codec is reset between requests.
	f := NewFunc()
	for _, tc := range []struct {
		name   string
		src    []byte
		maxOut int
	}{
		{"single byte", []byte{0x42}, 16},
		{"all byte values", allBytes, 300},
		{"repetitive", bytes.Repeat([]byte("abcabcabc"), 1000), 900},
		{"random", random(8192, 1), 8192 + 8192/8 + 512},
		{"long run", make([]byte, 100000), 1000},
		// Single-byte runs force copies whose distance is below their length.
		{"overlapping copy", bytes.Repeat([]byte{'a'}, 1000), 64},
		{"text", text, len(text) / 2},
		{"far matches", far, 1500},
		{"chunk runs", runs, len(runs)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := roundTrip(t, f, tc.src); n > tc.maxOut {
				t.Fatalf("%d bytes compressed to %d, want <= %d", len(tc.src), n, tc.maxOut)
			}
		})
	}
}

func TestQuickRoundTripProperty(t *testing.T) {
	fn := NewFunc()
	check := func(src []byte) bool {
		if len(src) == 0 {
			_, err := fn.Process([]byte{OpCompress})
			return err == ErrShort
		}
		roundTrip(t, fn, src)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// compressed returns src as a Deflate stream.
func compressed(t testing.TB, src []byte) []byte {
	resp, err := NewFunc().Process(append([]byte{OpCompress}, src...))
	if err != nil {
		t.Fatal(err)
	}
	return resp[1:]
}

// TestEmptyBody checks that an empty body never reaches the codec: a
// request of the op byte alone fails with ErrShort for both ops.
func TestEmptyBody(t *testing.T) {
	f := NewFunc()
	for _, op := range []byte{OpCompress, OpDecompress} {
		if _, err := f.Process([]byte{op}); err != ErrShort {
			t.Fatalf("op %d with an empty body: %v, want ErrShort", op, err)
		}
	}
	roundTrip(t, f, []byte("still works"))
}

func TestDecompressTruncated(t *testing.T) {
	f := NewFunc()
	for _, src := range []string{"hello world ", "abc"} {
		comp := compressed(t, bytes.Repeat([]byte(src), 1000))
		for _, cut := range []int{1, len(comp) / 2, len(comp) - 1} {
			if _, err := f.Process(decompressRequest(comp[:cut])); err == nil {
				t.Fatalf("truncation at %d of %d bytes decompressed cleanly", cut, len(comp))
			}
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	f := NewFunc()
	comp := compressed(t, bytes.Repeat([]byte("hello world "), 100))
	// 0xff opens a final block of the reserved type 3.
	bad := append([]byte{0xff}, comp[1:]...)
	if _, err := f.Process(decompressRequest(bad)); err == nil {
		t.Fatal("reserved block type decompressed cleanly")
	}
	// An error leaves the Func usable.
	roundTrip(t, f, []byte("still works"))
}

func TestDecompressBitFlipsNeverPanic(t *testing.T) {
	f := NewFunc()
	comp := compressed(t, bytes.Repeat([]byte("abcdefgh"), 200))
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		c := append([]byte(nil), comp...)
		c[r.Intn(len(c))] ^= 1 << r.Intn(8)
		if i%2 == 1 {
			c = c[:1+r.Intn(len(c))]
		}
		// Either an error or a result; a panic escapes the test.
		f.Process(decompressRequest(c))
	}
}

func FuzzDecompress(f *testing.F) {
	f.Add(compressed(f, []byte("the quick brown fox")))
	f.Add(compressed(f, make([]byte, 500)))
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff})
	fn := NewFunc()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Never panic; on success, a compress/decompress round trip of
		// the output must be stable.
		resp, err := fn.Process(decompressRequest(data))
		if err != nil || len(resp) == 1 {
			return
		}
		roundTrip(t, fn, resp[1:])
	})
}

func TestFactory(t *testing.T) {
	for _, cfg := range []string{"", "1k", "4k"} {
		fn, gen, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.Stream(5, rng.Payload, 0)
		for i := 0; i < 5; i++ {
			if _, err := fn.Process(gen.NextInto(&rng, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkFunctionDecompress1K(b *testing.B) {
	f := NewFunc()
	req := decompressRequest(compressed(b, SynthesizeCorpus(1024, 1)))
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Process(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionCompress1K(b *testing.B) {
	f := NewFunc()
	req := append([]byte{OpCompress}, SynthesizeCorpus(1024, 1)...)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Process(req); err != nil {
			b.Fatal(err)
		}
	}
}
