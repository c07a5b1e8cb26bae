// Package trace synthesizes datacenter network traffic following the
// paper's methodology (§VI): for each workload (web, cache, Hadoop from
// Meta), packet rates follow a log-normal distribution whose µ/σ are fitted
// to the published link-utilization CDFs. The client re-draws the offered
// rate every epoch and emits packets at that rate within the epoch,
// producing the bursty rate processes shown in Fig. 8.
package trace

import (
	"fmt"
	"math"
	"sync"

	"halsim/internal/rng"
)

// Workload identifies one of the paper's three traffic workloads.
type Workload int

const (
	// Web is Meta's web tier: low average rate with modest bursts.
	Web Workload = iota
	// Cache is Meta's cache tier: low median with extreme bursts.
	Cache
	// Hadoop is Meta's Hadoop tier: higher average, heavy bursts.
	Hadoop
)

func (w Workload) String() string {
	switch w {
	case Web:
		return "web"
	case Cache:
		return "cache"
	case Hadoop:
		return "hadoop"
	default:
		return fmt.Sprintf("workload(%d)", int(w))
	}
}

// Workloads lists the three paper workloads in presentation order.
var Workloads = []Workload{Web, Cache, Hadoop}

// Params holds the log-normal rate-process parameters for a workload.
// Rates are in Gbps. Mu/Sigma are the parameters of the underlying normal
// in ln-Gbps space, as reported in Fig. 8's caption; AvgGbps is the
// long-run average packet rate the paper reports for the resulting trace.
// Because a raw log-normal with those µ/σ has a different mean, the
// generator scales draws so the long-run average matches AvgGbps while the
// burst shape (σ) is preserved — the same normalization the authors apply
// when matching the CDFs.
type Params struct {
	Name     string
	Mu       float64
	Sigma    float64
	AvgGbps  float64
	PeakGbps float64 // clamp: the client NIC line rate
}

// Params returns the paper's parameters for w, or an error for a workload
// value outside the known set.
func (w Workload) Params() (Params, error) {
	switch w {
	case Web:
		return Params{Name: "web", Mu: -1.37, Sigma: 1.97, AvgGbps: 1.6, PeakGbps: 100}, nil
	case Cache:
		return Params{Name: "cache", Mu: -9, Sigma: 7.55, AvgGbps: 5.2, PeakGbps: 100}, nil
	case Hadoop:
		return Params{Name: "hadoop", Mu: -4.18, Sigma: 6.56, AvgGbps: 10.9, PeakGbps: 100}, nil
	default:
		return Params{}, fmt.Errorf("trace: unknown workload %d (want web, cache, or hadoop)", int(w))
	}
}

// ParamsFor returns the paper's parameters for w. It panics on an unknown
// workload; callers that can surface an error should use Workload.Params.
func ParamsFor(w Workload) Params {
	p, err := w.Params()
	if err != nil {
		panic(err.Error())
	}
	return p
}

// ParseWorkload maps a workload name ("web", "cache", "hadoop") to its
// Workload, with an error listing the valid names on a miss.
func ParseWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.String() == name {
			return w, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown workload %q (want web, cache, or hadoop)", name)
}

// Generator produces a piecewise-constant offered-rate process: every epoch
// it draws a fresh rate from the (clamped, mean-normalized) log-normal.
type Generator struct {
	p     Params
	rng   rng.Rand
	scale float64
}

// NewGenerator returns a deterministic generator for params p drawing
// from the run seed's trace stream.
func NewGenerator(p Params, seed int64) *Generator {
	g := &Generator{p: p, rng: rng.Stream(seed, rng.Trace, 0)}
	g.scale = g.calibrateScale()
	return g
}

// New returns a deterministic generator for workload w and run seed seed,
// or an error for a workload value outside the known set.
func New(w Workload, seed int64) (*Generator, error) {
	p, err := w.Params()
	if err != nil {
		return nil, err
	}
	return NewGenerator(p, seed), nil
}

// NewWorkloadGenerator is shorthand for NewGenerator(ParamsFor(w), seed).
// It panics on an unknown workload; use New to get an error instead.
func NewWorkloadGenerator(w Workload, seed int64) *Generator {
	return NewGenerator(ParamsFor(w), seed)
}

// scaleCache memoizes calibrateScale per Params: the calibration is a pure
// function of the parameters (fixed seed, fixed sample count), and an
// experiment sweep builds dozens of generators for the same three
// workloads — recomputing the 800k-draw estimate each time dominated the
// sweep's setup cost. sync.Map because sweeps construct generators from
// parallel goroutines; racing stores write the identical value.
var scaleCache sync.Map

// calibrateScale estimates the multiplicative factor that maps the clamped
// log-normal's mean onto AvgGbps. The clamp at PeakGbps makes the mean
// analytically awkward (σ up to 7.55 puts enormous mass in the clamp), so
// we calibrate empirically over a sample from a fixed stream —
// deterministic and independent of the generator's own stream.
func (g *Generator) calibrateScale() float64 {
	if g.p.AvgGbps <= 0 {
		return 1
	}
	if v, ok := scaleCache.Load(g.p); ok {
		return v.(float64)
	}
	// A fixed key: runs draw their rates from index 0.
	r := rng.Stream(0x5eed, rng.Trace, 1)
	const n = 200000
	scale := 1.0
	// Two fixed-point refinement passes are plenty: the clamp is the only
	// non-linearity.
	for pass := 0; pass < 4; pass++ {
		var sum float64
		for i := 0; i < n; i++ {
			v := math.Exp(g.p.Mu+g.p.Sigma*r.NormFloat64()) * scale
			if v > g.p.PeakGbps {
				v = g.p.PeakGbps
			}
			sum += v
		}
		mean := sum / n
		if mean <= 0 {
			break
		}
		scale *= g.p.AvgGbps / mean
	}
	scaleCache.Store(g.p, scale)
	return scale
}

// NextRateGbps draws the offered rate for the next epoch, in Gbps,
// clamped to [0, PeakGbps].
func (g *Generator) NextRateGbps() float64 {
	v := math.Exp(g.p.Mu+g.p.Sigma*g.rng.NormFloat64()) * g.scale
	if v > g.p.PeakGbps {
		v = g.p.PeakGbps
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.p }

// Snapshot materializes n epochs of the rate process — the data behind
// Fig. 8's trace snapshots.
func (g *Generator) Snapshot(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.NextRateGbps()
	}
	return out
}

// Stats summarizes a rate snapshot.
type Stats struct {
	Mean, Min, Max, P50, P99 float64
}

// Summarize computes summary statistics of a rate snapshot.
func Summarize(rates []float64) Stats {
	if len(rates) == 0 {
		return Stats{}
	}
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	sorted := append([]float64(nil), rates...)
	var sum float64
	for _, r := range sorted {
		sum += r
		if r < s.Min {
			s.Min = r
		}
		if r > s.Max {
			s.Max = r
		}
	}
	s.Mean = sum / float64(len(sorted))
	// insertion-free nearest-rank percentiles via sort
	sortFloats(sorted)
	s.P50 = sorted[int(math.Ceil(0.5*float64(len(sorted))))-1]
	s.P99 = sorted[int(math.Ceil(0.99*float64(len(sorted))))-1]
	return s
}

func sortFloats(a []float64) {
	// Shell sort: tiny, allocation-free, adequate for snapshot sizes.
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for ; j >= gap && a[j-gap] > v; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = v
		}
	}
}

// CDF returns the empirical CDF of rates evaluated at each threshold in
// gbps, i.e. the fraction of epochs at or below that rate — the format of
// the link-utilization CDFs the paper fits against.
func CDF(rates []float64, thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	if len(rates) == 0 {
		return out
	}
	for i, th := range thresholds {
		var n int
		for _, r := range rates {
			if r <= th {
				n++
			}
		}
		out[i] = float64(n) / float64(len(rates))
	}
	return out
}

// SizeDist models the packet-size mix of a trace. The paper's experiments
// use MTU-size packets (1500B) for the function benchmarks and cite 64B as
// the small-packet stress case; datacenter traffic is bimodal (§III-A).
type SizeDist struct {
	// Sizes and Weights describe a discrete distribution over wire sizes.
	Sizes   []int
	Weights []float64
	cum     []float64
}

// NewSizeDist builds a discrete packet-size distribution. Weights are
// normalized internally.
func NewSizeDist(sizes []int, weights []float64) *SizeDist {
	if len(sizes) == 0 || len(sizes) != len(weights) {
		panic("trace: bad size distribution")
	}
	d := &SizeDist{Sizes: sizes, Weights: weights}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("trace: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("trace: zero total weight")
	}
	d.cum = make([]float64, len(weights))
	var acc float64
	for i, w := range weights {
		acc += w / total
		d.cum[i] = acc
	}
	return d
}

// MTUOnly is the distribution used for the paper's headline experiments.
func MTUOnly() *SizeDist { return NewSizeDist([]int{1500}, []float64{1}) }

// Bimodal64_1500 approximates the datacenter mix cited from Benson et al.:
// mostly small packets with an MTU mode.
func Bimodal64_1500() *SizeDist {
	return NewSizeDist([]int{64, 1500}, []float64{0.6, 0.4})
}

// Sample draws one wire size from r.
func (d *SizeDist) Sample(r *rng.Rand) int {
	u := r.Float64()
	for i, c := range d.cum {
		if u <= c {
			return d.Sizes[i]
		}
	}
	return d.Sizes[len(d.Sizes)-1]
}

// MeanSize returns the expected wire size.
func (d *SizeDist) MeanSize() float64 {
	var total, mean float64
	for _, w := range d.Weights {
		total += w
	}
	for i, w := range d.Weights {
		mean += float64(d.Sizes[i]) * w / total
	}
	return mean
}

// FitLogNormal estimates the (mu, sigma) of a log-normal rate process from
// positive samples by the method of moments in log space — the procedure
// the paper uses to match its generators to Meta's published
// link-utilization CDFs. Zero/negative samples (idle epochs, clamp floor)
// are ignored; fitting needs at least two positive samples.
func FitLogNormal(samples []float64) (mu, sigma float64, ok bool) {
	var n int
	var sum, sum2 float64
	for _, s := range samples {
		if s <= 0 {
			continue
		}
		l := math.Log(s)
		sum += l
		sum2 += l * l
		n++
	}
	if n < 2 {
		return 0, 0, false
	}
	mu = sum / float64(n)
	variance := sum2/float64(n) - mu*mu
	if variance < 0 {
		variance = 0
	}
	return mu, math.Sqrt(variance), true
}
