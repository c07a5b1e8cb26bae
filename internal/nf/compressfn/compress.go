// Package compressfn implements the Compression benchmark function: real
// RFC 1951 Deflate compression and decompression through compress/flate.
// The paper compresses chunks of the Silesia-mozilla corpus; that corpus is
// not redistributable, so the request generator synthesizes payloads with
// comparable entropy structure — a mixture of repetitive markup,
// English-like text, and incompressible binary spans.
package compressfn

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"halsim/internal/nf"
	"halsim/internal/rng"
)

// Op codes carried in the first request byte.
const (
	OpCompress   = 0x01
	OpDecompress = 0x02
)

// Errors for malformed requests.
var (
	ErrShort = errors.New("compressfn: request too short")
	ErrBadOp = errors.New("compressfn: unknown op")
)

// Func is the Comp network function.
type Func struct {
	// BytesIn/BytesOut track the cumulative compression ratio.
	BytesIn, BytesOut uint64

	// zw and zr are built on first use and Reset per request: every Comp
	// run builds a Func, but only a Functional run compresses.
	zw  *flate.Writer
	zr  io.ReadCloser
	src bytes.Reader
}

// NewFunc returns a compression function.
func NewFunc() *Func { return &Func{} }

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.Comp }

// Ratio returns the cumulative output/input byte ratio (1 before any
// traffic).
func (f *Func) Ratio() float64 {
	if f.BytesIn == 0 {
		return 1
	}
	return float64(f.BytesOut) / float64(f.BytesIn)
}

// Process compresses or decompresses the payload after the op byte.
// Response: status[1]=0 then result bytes.
func (f *Func) Process(req []byte) ([]byte, error) {
	if len(req) < 2 {
		return nil, ErrShort
	}
	body := req[1:]
	var out bytes.Buffer
	out.WriteByte(0)
	switch req[0] {
	case OpCompress:
		if f.zw == nil {
			// Only an invalid level fails.
			f.zw, _ = flate.NewWriter(&out, flate.DefaultCompression)
		} else {
			f.zw.Reset(&out)
		}
		if _, err := f.zw.Write(body); err != nil {
			return nil, err
		}
		if err := f.zw.Close(); err != nil {
			return nil, err
		}
		f.BytesIn += uint64(len(body))
		f.BytesOut += uint64(out.Len() - 1)
		return out.Bytes(), nil
	case OpDecompress:
		f.src.Reset(body)
		if f.zr == nil {
			f.zr = flate.NewReader(&f.src)
		} else if err := f.zr.(flate.Resetter).Reset(&f.src, nil); err != nil {
			return nil, err
		}
		if _, err := out.ReadFrom(f.zr); err != nil {
			return nil, fmt.Errorf("compressfn: decompress: %w", err)
		}
		return out.Bytes(), nil
	default:
		return nil, ErrBadOp
	}
}

// SynthesizeCorpus builds a deterministic pseudo-Silesia buffer of n bytes:
// 45% templated markup (highly compressible), 35% word-like text, 20%
// random binary (incompressible) — roughly the mix of the mozilla tarball.
func SynthesizeCorpus(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"the", "network", "function", "packet", "balance", "mozilla",
		"compression", "entropy", "window", "header", "stream", "buffer"}
	out := make([]byte, 0, n)
	for len(out) < n {
		switch rng.Intn(20) {
		case 0, 1, 2, 3: // binary span
			span := make([]byte, 32+rng.Intn(96))
			rng.Read(span)
			out = append(out, span...)
		case 4, 5, 6, 7, 8, 9, 10, 11, 12: // markup
			tag := words[rng.Intn(len(words))]
			out = append(out, fmt.Sprintf("<%s id=%d class=\"item\">value</%s>\n", tag, rng.Intn(1000), tag)...)
		default: // text
			for k := 0; k < 8; k++ {
				out = append(out, words[rng.Intn(len(words))]...)
				out = append(out, ' ')
			}
			out = append(out, '\n')
		}
	}
	return out[:n]
}

// gen emits compress requests over chunks of a synthetic corpus.
type gen struct {
	corpus []byte
	chunk  int
}

// NextLen implements nf.RequestGen: an op byte and one chunk.
func (g gen) NextLen(*rng.Rand) int { return 1 + g.chunk }

// NextInto implements nf.RequestGen.
func (g gen) NextInto(rng *rng.Rand, buf []byte) []byte {
	off := rng.Intn(len(g.corpus) - g.chunk)
	b := nf.Reserve(buf, 1+g.chunk)
	b[0] = OpCompress
	copy(b[1:], g.corpus[off:off+g.chunk])
	return b
}

// New builds a compression function and its request generator. config ""
// or "1k" selects 1 KB chunks, "4k" 4 KB.
func New(config string) (nf.Function, nf.RequestGen, error) {
	chunk := 1024
	if config == "4k" {
		chunk = 4096
	}
	return NewFunc(), gen{corpus: SynthesizeCorpus(1<<18, 3), chunk: chunk}, nil
}
