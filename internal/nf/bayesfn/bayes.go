// Package bayesfn implements the Bayes benchmark function: a naive Bayes
// classifier over binary feature vectors with 128 or 256 features, as in
// Table IV.
package bayesfn

import (
	"errors"
	"math"
	"math/rand"

	"halsim/internal/nf"
)

// Request layout: a bitmap of features, one bit per feature
// (features/8 bytes). Response layout: label[1] logposterior-milli[8
// implicit — we return label plus a confidence byte].
var ErrShort = errors.New("bayesfn: request shorter than the feature bitmap")

// Model holds per-class priors and per-feature conditional log-odds.
type Model struct {
	features int
	classes  int
	logPrior []float64
	// logOn[c][f] = log P(f=1|c); logOff[c][f] = log P(f=0|c)
	logOn  [][]float64
	logOff [][]float64
}

// NewModel synthesizes a classifier with the given shape. Per-class
// Bernoulli parameters are drawn deterministically from seed, with
// Laplace-style flooring so no probability is 0 or 1.
func NewModel(features, classes int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{
		features: features,
		classes:  classes,
		logPrior: make([]float64, classes),
		logOn:    make([][]float64, classes),
		logOff:   make([][]float64, classes),
	}
	prior := 1.0 / float64(classes)
	for c := 0; c < classes; c++ {
		m.logPrior[c] = math.Log(prior)
		m.logOn[c] = make([]float64, features)
		m.logOff[c] = make([]float64, features)
		for f := 0; f < features; f++ {
			p := 0.05 + 0.9*rng.Float64()
			m.logOn[c][f] = math.Log(p)
			m.logOff[c][f] = math.Log(1 - p)
		}
	}
	return m
}

// Features returns the feature count.
func (m *Model) Features() int { return m.features }

// Classes returns the class count.
func (m *Model) Classes() int { return m.classes }

// Classify returns the MAP class for the feature bitmap and the log
// posterior margin over the runner-up (a confidence proxy).
func (m *Model) Classify(bitmap []byte) (best int, margin float64) {
	bestLP, secondLP := math.Inf(-1), math.Inf(-1)
	for c := 0; c < m.classes; c++ {
		lp := m.logPrior[c]
		for f := 0; f < m.features; f++ {
			if bitmap[f>>3]&(1<<(f&7)) != 0 {
				lp += m.logOn[c][f]
			} else {
				lp += m.logOff[c][f]
			}
		}
		if lp > bestLP {
			secondLP = bestLP
			bestLP = lp
			best = c
		} else if lp > secondLP {
			secondLP = lp
		}
	}
	return best, bestLP - secondLP
}

// Func is the Bayes network function.
type Func struct {
	model *Model
}

// NewFunc builds a Bayes function with the given feature count.
func NewFunc(features int) *Func {
	return &Func{model: NewModel(features, 8, 11)}
}

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.Bayes }

// Model exposes the classifier.
func (f *Func) Model() *Model { return f.model }

// Process classifies the request's feature bitmap; the response is
// label[1] confidence[1] where confidence is the clamped margin.
func (f *Func) Process(req []byte) ([]byte, error) {
	need := (f.model.features + 7) / 8
	if len(req) < need {
		return nil, ErrShort
	}
	label, margin := f.model.Classify(req[:need])
	conf := margin
	if conf > 255 {
		conf = 255
	}
	if conf < 0 {
		conf = 0
	}
	return []byte{byte(label), byte(conf)}, nil
}

type gen struct {
	features int
}

func (g gen) Next(rng *rand.Rand) []byte {
	b := make([]byte, (g.features+7)/8)
	rng.Read(b)
	return b
}

func factory(config string) (nf.Function, nf.RequestGen, error) {
	features := 128
	switch config {
	case "", "128":
		features = 128
	case "256":
		features = 256
	}
	return NewFunc(features), gen{features: features}, nil
}

func init() { nf.Register(nf.Bayes, factory, "128", "256") }
