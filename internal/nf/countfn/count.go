// Package countfn implements the Count benchmark function: per-key
// frequency counting over batches of keys (batch sizes 4 and 8, Table IV).
// Counts are kept both exactly (bounded hash map) and in a count-min
// sketch; the sketch answers queries when the exact table overflows, which
// keeps state size bounded the way a fixed-memory NFV counter would.
package countfn

import (
	"encoding/binary"
	"errors"
	"math/rand"

	"halsim/internal/nf"
)

// Request layout: batch of 8-byte big-endian keys. Response layout: one
// 8-byte count per key.
const keyLen = 8

// Errors returned for malformed requests.
var (
	ErrEmpty      = errors.New("countfn: empty batch")
	ErrMisaligned = errors.New("countfn: request not a multiple of 8 bytes")
)

// Sketch is a count-min sketch with d hash rows of w counters.
type Sketch struct {
	d, w  int
	rows  [][]uint64
	seeds []uint64
}

// NewSketch returns a count-min sketch with the given depth and width.
func NewSketch(d, w int) *Sketch {
	if d <= 0 || w <= 0 {
		panic("countfn: sketch dimensions must be positive")
	}
	s := &Sketch{d: d, w: w}
	s.rows = make([][]uint64, d)
	s.seeds = make([]uint64, d)
	for i := range s.rows {
		s.rows[i] = make([]uint64, w)
		s.seeds[i] = 0x9E3779B97F4A7C15 * uint64(i+1)
	}
	return s
}

func mix(x, seed uint64) uint64 {
	x ^= seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add increments key's counter in every row.
func (s *Sketch) Add(key uint64) {
	for i := 0; i < s.d; i++ {
		s.rows[i][mix(key, s.seeds[i])%uint64(s.w)]++
	}
}

// Estimate returns the count-min estimate (an upper bound on the true
// count, never an underestimate).
func (s *Sketch) Estimate(key uint64) uint64 {
	min := ^uint64(0)
	for i := 0; i < s.d; i++ {
		if c := s.rows[i][mix(key, s.seeds[i])%uint64(s.w)]; c < min {
			min = c
		}
	}
	return min
}

// Func is the Count network function.
type Func struct {
	batch  int
	exact  map[uint64]uint64
	maxKey int
	sketch *Sketch
	// Overflowed counts how many keys fell back to the sketch.
	Overflowed uint64
}

// NewFunc returns a counter for the given batch size. maxExact bounds the
// exact table before new keys spill into the sketch.
func NewFunc(batch, maxExact int) *Func {
	return &Func{
		batch:  batch,
		exact:  make(map[uint64]uint64, maxExact),
		maxKey: maxExact,
		sketch: NewSketch(4, 1<<14),
	}
}

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.Count }

// Batch returns the configured batch size.
func (f *Func) Batch() int { return f.batch }

// Process increments each key in the batch and returns its updated count.
func (f *Func) Process(req []byte) ([]byte, error) {
	if len(req) == 0 {
		return nil, ErrEmpty
	}
	if len(req)%keyLen != 0 {
		return nil, ErrMisaligned
	}
	n := len(req) / keyLen
	resp := make([]byte, n*keyLen)
	for i := 0; i < n; i++ {
		key := binary.BigEndian.Uint64(req[i*keyLen:])
		var count uint64
		if c, ok := f.exact[key]; ok {
			count = c + 1
			f.exact[key] = count
		} else if len(f.exact) < f.maxKey {
			count = 1
			f.exact[key] = 1
		} else {
			f.Overflowed++
			f.sketch.Add(key)
			count = f.sketch.Estimate(key)
		}
		binary.BigEndian.PutUint64(resp[i*keyLen:], count)
	}
	return resp, nil
}

// CountOf reports the current count of key (exact if tracked, else sketch
// estimate).
func (f *Func) CountOf(key uint64) uint64 {
	if c, ok := f.exact[key]; ok {
		return c
	}
	return f.sketch.Estimate(key)
}

// StateLines implements nf.StateFunction: each key in the batch touches
// one counter line.
func (f *Func) StateLines(req []byte) []uint64 {
	n := len(req) / keyLen
	lines := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		key := binary.BigEndian.Uint64(req[i*keyLen:])
		lines = append(lines, mix(key, 0xC0)%(1<<16))
	}
	return lines
}

type gen struct {
	batch int
	keys  int
}

func (g gen) Next(rng *rand.Rand) []byte { return g.NextInto(rng, nil) }

// NextInto implements nf.RequestGenInto: every byte of the returned slice
// is written, so recycled buffers yield the identical request stream.
func (g gen) NextInto(rng *rand.Rand, buf []byte) []byte {
	b := nf.Reserve(buf, g.batch*keyLen)
	for i := 0; i < g.batch; i++ {
		// Zipf-ish skew: favor low keys, as flow counters do.
		k := uint64(rng.Intn(g.keys))
		if rng.Intn(4) != 0 {
			k = uint64(rng.Intn(g.keys / 16))
		}
		binary.BigEndian.PutUint64(b[i*keyLen:], k)
	}
	return b
}

func factory(config string) (nf.Function, nf.RequestGen, error) {
	batch := 8
	switch config {
	case "", "8":
		batch = 8
	case "4":
		batch = 4
	}
	return NewFunc(batch, 1<<15), gen{batch: batch, keys: 1 << 16}, nil
}

func init() { nf.Register(nf.Count, factory, "4", "8") }
