// Package knnfn implements the KNN benchmark function: k-nearest-neighbour
// classification of query vectors against a labeled reference set, with
// set sizes 8 and 16 per class as in Table IV.
package knnfn

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"

	"halsim/internal/nf"
	"halsim/internal/rng"
)

// Dim is the feature dimensionality of reference and query vectors.
const Dim = 16

// Request layout: k[1] then Dim float32 features (big endian).
// Response layout: label[1] then k neighbour distances as float32.
var (
	ErrShort = errors.New("knnfn: request shorter than a query vector")
	ErrBadK  = errors.New("knnfn: k out of range")
)

// Point is a labeled reference vector.
type Point struct {
	X     [Dim]float32
	Label uint8
}

// Model is the reference set.
type Model struct {
	points []Point
	labels int
}

// NewModel synthesizes numLabels Gaussian clusters with perClass points
// each; deterministic for a seed.
func NewModel(numLabels, perClass int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{labels: numLabels}
	for l := 0; l < numLabels; l++ {
		var center [Dim]float32
		for d := range center {
			center[d] = float32(rng.NormFloat64() * 10)
		}
		for i := 0; i < perClass; i++ {
			var p Point
			p.Label = uint8(l)
			for d := range p.X {
				p.X[d] = center[d] + float32(rng.NormFloat64())
			}
			m.points = append(m.points, p)
		}
	}
	return m
}

// Size returns the number of reference points.
func (m *Model) Size() int { return len(m.points) }

// Labels returns the number of classes.
func (m *Model) Labels() int { return m.labels }

func dist2(a, b *[Dim]float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// Classify returns the majority label among the k nearest reference points
// and their distances (ascending).
func (m *Model) Classify(q *[Dim]float32, k int) (uint8, []float64) {
	if k <= 0 || k > len(m.points) {
		k = len(m.points)
	}
	// Selection of k smallest via a bounded insertion list: k ≤ 16 in all
	// configurations, so this beats a heap.
	bestD := make([]float64, 0, k)
	bestL := make([]uint8, 0, k)
	for i := range m.points {
		d := dist2(&m.points[i].X, q)
		if len(bestD) < k {
			bestD = append(bestD, d)
			bestL = append(bestL, m.points[i].Label)
		} else if d < bestD[k-1] {
			bestD[k-1] = d
			bestL[k-1] = m.points[i].Label
		} else {
			continue
		}
		// bubble the inserted element into place
		for j := len(bestD) - 1; j > 0 && bestD[j] < bestD[j-1]; j-- {
			bestD[j], bestD[j-1] = bestD[j-1], bestD[j]
			bestL[j], bestL[j-1] = bestL[j-1], bestL[j]
		}
	}
	votes := make([]int, m.labels)
	for _, l := range bestL {
		votes[l]++
	}
	best := 0
	for l, v := range votes {
		if v > votes[best] {
			best = l
		}
	}
	dists := make([]float64, len(bestD))
	for i, d := range bestD {
		dists[i] = math.Sqrt(d)
	}
	return uint8(best), dists
}

// Func is the KNN network function.
type Func struct {
	model *Model
	k     int
}

// NewFunc builds a KNN function whose reference set has perClass points
// per class (the paper's "set size" 8 or 16).
func NewFunc(perClass int) *Func {
	return &Func{model: NewModel(8, perClass, 7), k: 5}
}

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.KNN }

// Model exposes the reference set.
func (f *Func) Model() *Model { return f.model }

// Process classifies the query vector in the payload.
func (f *Func) Process(req []byte) ([]byte, error) {
	if len(req) < 1+4*Dim {
		return nil, ErrShort
	}
	k := int(req[0])
	if k == 0 {
		k = f.k
	}
	if k > f.model.Size() {
		return nil, ErrBadK
	}
	var q [Dim]float32
	for d := 0; d < Dim; d++ {
		q[d] = math.Float32frombits(binary.BigEndian.Uint32(req[1+4*d:]))
	}
	label, dists := f.model.Classify(&q, k)
	resp := make([]byte, 1+4*len(dists))
	resp[0] = label
	for i, d := range dists {
		binary.BigEndian.PutUint32(resp[1+4*i:], math.Float32bits(float32(d)))
	}
	return resp, nil
}

// gen emits k=5 queries at normally distributed points.
type gen struct{}

// NextLen implements nf.RequestGen: a k byte and one point.
func (gen) NextLen(*rng.Rand) int { return 1 + 4*Dim }

// NextInto implements nf.RequestGen.
func (gen) NextInto(rng *rng.Rand, buf []byte) []byte {
	b := nf.Reserve(buf, 1+4*Dim)
	b[0] = 5
	for d := 0; d < Dim; d++ {
		binary.BigEndian.PutUint32(b[1+4*d:], math.Float32bits(float32(rng.NormFloat64()*10)))
	}
	return b
}

// New builds a KNN function and its request generator. config "" or "8"
// selects 8 training points per class, "16" 16.
func New(config string) (nf.Function, nf.RequestGen, error) {
	perClass := 8
	if config == "16" {
		perClass = 16
	}
	return NewFunc(perClass), gen{}, nil
}
