package trace

import (
	"math"
	"math/rand"
	"testing"

	"halsim/internal/rng"
)

func TestParamsForAllWorkloads(t *testing.T) {
	for _, w := range Workloads {
		p := ParamsFor(w)
		if p.Name != w.String() {
			t.Errorf("params name %q != workload %q", p.Name, w)
		}
		if p.AvgGbps <= 0 || p.Sigma <= 0 || p.PeakGbps != 100 {
			t.Errorf("%s: implausible params %+v", w, p)
		}
	}
}

func TestWorkloadStringUnknown(t *testing.T) {
	if Workload(99).String() != "workload(99)" {
		t.Fatal("unknown workload string")
	}
}

func TestGeneratorMeanMatchesTarget(t *testing.T) {
	for _, w := range Workloads {
		g := NewWorkloadGenerator(w, 1)
		var sum float64
		const n = 100000
		for i := 0; i < n; i++ {
			sum += g.NextRateGbps()
		}
		mean := sum / n
		target := ParamsFor(w).AvgGbps
		if math.Abs(mean-target)/target > 0.08 {
			t.Errorf("%s: mean %.2f Gbps, want %.2f ±8%%", w, mean, target)
		}
	}
}

func TestGeneratorClampedToLineRate(t *testing.T) {
	g := NewWorkloadGenerator(Cache, 3) // σ=7.55 → many draws hit the clamp
	clamped := 0
	for i := 0; i < 10000; i++ {
		r := g.NextRateGbps()
		if r < 0 || r > 100 {
			t.Fatalf("rate %v out of [0,100]", r)
		}
		if r == 100 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Error("cache workload should occasionally saturate the line rate")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewWorkloadGenerator(Hadoop, 42)
	b := NewWorkloadGenerator(Hadoop, 42)
	for i := 0; i < 100; i++ {
		if a.NextRateGbps() != b.NextRateGbps() {
			t.Fatal("same seed must produce identical rate process")
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewWorkloadGenerator(Web, 1)
	b := NewWorkloadGenerator(Web, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.NextRateGbps() == b.NextRateGbps() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestBurstinessOrdering(t *testing.T) {
	// Cache (σ=7.55) must be burstier than web (σ=1.97): higher ratio of
	// p99 to median.
	ratios := map[Workload]float64{}
	for _, w := range []Workload{Web, Cache} {
		g := NewWorkloadGenerator(w, 5)
		s := Summarize(g.Snapshot(50000))
		if s.P50 <= 0 {
			ratios[w] = math.Inf(1)
			continue
		}
		ratios[w] = s.P99 / s.P50
	}
	if ratios[Cache] <= ratios[Web] {
		t.Fatalf("cache burst ratio %.1f should exceed web %.1f", ratios[Cache], ratios[Web])
	}
}

func TestSnapshotAndSummarize(t *testing.T) {
	g := NewWorkloadGenerator(Web, 9)
	snap := g.Snapshot(1000)
	if len(snap) != 1000 {
		t.Fatal("snapshot size")
	}
	s := Summarize(snap)
	if s.Min > s.P50 || s.P50 > s.P99 || s.P99 > s.Max {
		t.Fatalf("ordering violated: %+v", s)
	}
	if s.Mean <= 0 {
		t.Fatal("mean should be positive")
	}
	if got := Summarize(nil); got != (Stats{}) {
		t.Fatal("empty summarize should be zero")
	}
}

func TestCDFMonotone(t *testing.T) {
	g := NewWorkloadGenerator(Hadoop, 11)
	rates := g.Snapshot(5000)
	th := []float64{0.1, 1, 5, 10, 25, 50, 100}
	cdf := CDF(rates, th)
	prev := -1.0
	for i, c := range cdf {
		if c < prev || c < 0 || c > 1 {
			t.Fatalf("CDF not monotone in [0,1]: %v", cdf)
		}
		prev = c
		_ = i
	}
	if cdf[len(cdf)-1] != 1 {
		t.Fatalf("CDF at line rate should be 1, got %v", cdf[len(cdf)-1])
	}
	if len(CDF(nil, th)) != len(th) {
		t.Fatal("empty CDF length")
	}
}

func TestSizeDistMTUOnly(t *testing.T) {
	d := MTUOnly()
	r := rng.Stream(1, rng.Client, 0)
	for i := 0; i < 100; i++ {
		if d.Sample(&r) != 1500 {
			t.Fatal("MTUOnly must always return 1500")
		}
	}
	if d.MeanSize() != 1500 {
		t.Fatal("mean size")
	}
}

func TestSizeDistBimodal(t *testing.T) {
	d := Bimodal64_1500()
	r := rng.Stream(2, rng.Client, 0)
	counts := map[int]int{}
	for i := 0; i < 10000; i++ {
		counts[d.Sample(&r)]++
	}
	if counts[64] == 0 || counts[1500] == 0 {
		t.Fatalf("bimodal should produce both sizes: %v", counts)
	}
	frac64 := float64(counts[64]) / 10000
	if math.Abs(frac64-0.6) > 0.03 {
		t.Fatalf("64B fraction = %.3f, want ~0.6", frac64)
	}
	want := 0.6*64 + 0.4*1500
	if math.Abs(d.MeanSize()-want) > 1e-9 {
		t.Fatalf("mean size = %v, want %v", d.MeanSize(), want)
	}
}

func TestSizeDistPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSizeDist(nil, nil) },
		func() { NewSizeDist([]int{64}, []float64{1, 2}) },
		func() { NewSizeDist([]int{64}, []float64{-1}) },
		func() { NewSizeDist([]int{64}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkNextRate(b *testing.B) {
	g := NewWorkloadGenerator(Cache, 1)
	for i := 0; i < b.N; i++ {
		g.NextRateGbps()
	}
}

func TestFitLogNormalRecoversParameters(t *testing.T) {
	// Generate an unclamped log-normal and recover its parameters.
	rng := rand.New(rand.NewSource(21))
	const mu, sigma = -1.37, 1.97
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = math.Exp(mu + sigma*rng.NormFloat64())
	}
	gotMu, gotSigma, ok := FitLogNormal(samples)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(gotMu-mu) > 0.05 || math.Abs(gotSigma-sigma) > 0.05 {
		t.Fatalf("fit = (%.3f, %.3f), want (%.2f, %.2f)", gotMu, gotSigma, mu, sigma)
	}
}

func TestFitLogNormalOnGeneratorOutput(t *testing.T) {
	// Fitting the web generator's own output should recover a sigma in
	// the right ballpark (the mean-normalizing scale shifts mu, and the
	// line-rate clamp compresses the upper tail slightly).
	g := NewWorkloadGenerator(Web, 13)
	mu, sigma, ok := FitLogNormal(g.Snapshot(50000))
	if !ok {
		t.Fatal("fit failed")
	}
	p := ParamsFor(Web)
	if math.Abs(sigma-p.Sigma) > 0.25 {
		t.Fatalf("sigma = %.2f, want ≈%.2f", sigma, p.Sigma)
	}
	_ = mu // shifted by the calibration scale; sigma is the shape check
}

func TestFitLogNormalDegenerate(t *testing.T) {
	if _, _, ok := FitLogNormal(nil); ok {
		t.Fatal("empty fit should fail")
	}
	if _, _, ok := FitLogNormal([]float64{-1, 0}); ok {
		t.Fatal("non-positive-only fit should fail")
	}
	if _, _, ok := FitLogNormal([]float64{1, 2, 0, -5}); !ok {
		t.Fatal("two positive samples suffice")
	}
}

func TestParseWorkload(t *testing.T) {
	for _, w := range Workloads {
		got, err := ParseWorkload(w.String())
		if err != nil || got != w {
			t.Errorf("ParseWorkload(%q) = %v, %v", w.String(), got, err)
		}
	}
	if _, err := ParseWorkload("bogus"); err == nil {
		t.Fatal("bogus workload should fail")
	}
}

func TestNewUnknownWorkloadErrors(t *testing.T) {
	if _, err := New(Workload(99), 1); err == nil {
		t.Fatal("unknown workload should error")
	}
	g, err := New(Web, 1)
	if err != nil || g == nil {
		t.Fatalf("New(Web) = %v, %v", g, err)
	}
	// New and the legacy shorthand agree draw for draw.
	h := NewWorkloadGenerator(Web, 1)
	for i := 0; i < 10; i++ {
		if g.NextRateGbps() != h.NextRateGbps() {
			t.Fatal("New and NewWorkloadGenerator diverge")
		}
	}
}

func TestParamsForPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ParamsFor(Workload(99))
}
