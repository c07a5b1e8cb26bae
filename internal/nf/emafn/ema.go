// Package emafn implements the EMA benchmark function: per-key exponential
// moving averages over batches of (key, sample) pairs, batch sizes 4 and 8
// as in Table IV. EMA is stateful: the running average per key is the
// shared state cooperative processing must keep coherent.
package emafn

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"

	"halsim/internal/nf"
)

// Request layout: batch of records, each 12 bytes: key[8] sample[4]
// (sample is an IEEE-754 float32). Response: one float32 average per
// record.
const recLen = 12

// Errors for malformed requests.
var (
	ErrEmpty      = errors.New("emafn: empty batch")
	ErrMisaligned = errors.New("emafn: request not a multiple of 12 bytes")
)

// Func is the EMA network function.
type Func struct {
	batch int
	alpha float32
	state map[uint64]float32
}

// NewFunc returns an EMA function with the given batch size and smoothing
// factor alpha in (0, 1].
func NewFunc(batch int, alpha float32) *Func {
	if alpha <= 0 || alpha > 1 {
		panic("emafn: alpha out of (0,1]")
	}
	return &Func{batch: batch, alpha: alpha, state: make(map[uint64]float32)}
}

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.EMA }

// Batch returns the configured batch size.
func (f *Func) Batch() int { return f.batch }

// Average returns the current moving average for key (0, false if unseen).
func (f *Func) Average(key uint64) (float32, bool) {
	v, ok := f.state[key]
	return v, ok
}

// Process folds each (key, sample) pair into its running average and
// returns the updated averages.
func (f *Func) Process(req []byte) ([]byte, error) {
	if len(req) == 0 {
		return nil, ErrEmpty
	}
	if len(req)%recLen != 0 {
		return nil, ErrMisaligned
	}
	n := len(req) / recLen
	resp := make([]byte, n*4)
	for i := 0; i < n; i++ {
		rec := req[i*recLen:]
		key := binary.BigEndian.Uint64(rec[0:8])
		sample := math.Float32frombits(binary.BigEndian.Uint32(rec[8:12]))
		avg, ok := f.state[key]
		if !ok {
			avg = sample
		} else {
			avg = f.alpha*sample + (1-f.alpha)*avg
		}
		f.state[key] = avg
		binary.BigEndian.PutUint32(resp[i*4:], math.Float32bits(avg))
	}
	return resp, nil
}

// StateLines implements nf.StateFunction: one state line per key.
func (f *Func) StateLines(req []byte) []uint64 {
	n := len(req) / recLen
	lines := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		key := binary.BigEndian.Uint64(req[i*recLen:])
		lines = append(lines, key%(1<<16))
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
	b := nf.Reserve(buf, g.batch*recLen)
	for i := 0; i < g.batch; i++ {
		rec := b[i*recLen:]
		binary.BigEndian.PutUint64(rec[0:8], uint64(rng.Intn(g.keys)))
		binary.BigEndian.PutUint32(rec[8:12], math.Float32bits(rng.Float32()*100))
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
	return NewFunc(batch, 0.125), gen{batch: batch, keys: 4096}, nil
}

func init() { nf.Register(nf.EMA, factory, "4", "8") }
