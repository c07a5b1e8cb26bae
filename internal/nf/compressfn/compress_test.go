package compressfn

import (
	"bytes"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/nf/compressfn/lzh"
	"halsim/internal/rng"
)

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
	back, err := f.Process(EncodeDecompressRequest(resp[1:]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[1:], src) {
		t.Fatal("round trip through the function mismatched")
	}
}

func TestCorpusCompresses(t *testing.T) {
	src := SynthesizeCorpus(1<<16, 2)
	comp := lzh.Compress(src)
	ratio := float64(len(comp)) / float64(len(src))
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

func TestFactory(t *testing.T) {
	for _, cfg := range []string{"", "1k", "4k"} {
		fn, gen, err := nf.New(nf.Comp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.New(5)
		for i := 0; i < 5; i++ {
			if _, err := fn.Process(gen.Next(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := nf.New(nf.Comp, "64k"); err == nil {
		t.Fatal("bad config should fail")
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
