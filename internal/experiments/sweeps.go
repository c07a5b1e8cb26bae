package experiments

import (
	"fmt"

	"halsim/internal/nf"
	"halsim/internal/server"
)

// SweepPoint is one (rate, mode) measurement of a rate sweep.
type SweepPoint struct {
	RateGbps float64
	Mode     server.Mode
	TPGbps   float64
	P50us    float64
	P99us    float64
	PowerW   float64
	EffGbpsW float64
	DropFrac float64
}

// SweepResult is a full rate sweep for one function.
type SweepResult struct {
	Fn     nf.ID
	Rates  []float64
	Points map[server.Mode][]SweepPoint
}

// defaultSweepRates are the offered loads of Fig. 4/9.
func defaultSweepRates() []float64 {
	return []float64{5, 10, 20, 30, 41, 50, 60, 70, 80, 90, 100}
}

// sweep runs one function across rates for the given modes; all
// (mode, rate) points execute in parallel.
func sweep(fn nf.ID, modes []server.Mode, opt Options) (SweepResult, error) {
	opt = opt.withDefaults()
	out := SweepResult{Fn: fn, Rates: defaultSweepRates(), Points: map[server.Mode][]SweepPoint{}}
	for _, mode := range modes {
		out.Points[mode] = make([]SweepPoint, len(out.Rates))
	}
	type job struct {
		mode server.Mode
		ri   int
	}
	var jobs []job
	for _, mode := range modes {
		for ri := range out.Rates {
			jobs = append(jobs, job{mode, ri})
		}
	}
	err := parMap(len(jobs), func(i int) error {
		j := jobs[i]
		rate := out.Rates[j.ri]
		res, err := server.Run(
			server.Config{Mode: j.mode, Fn: fn, Seed: opt.Seed},
			server.RunConfig{Duration: opt.Duration, RateGbps: rate})
		if err != nil {
			return fmt.Errorf("%v/%v@%v: %w", fn, j.mode, rate, err)
		}
		out.Points[j.mode][j.ri] = SweepPoint{
			RateGbps: rate, Mode: j.mode,
			TPGbps: res.AvgGbps, P50us: res.P50us, P99us: res.P99us,
			PowerW: res.AvgPowerW, EffGbpsW: res.EffGbpsPerW,
			DropFrac: res.DropFraction,
		}
		return nil
	})
	return out, err
}

// Fig4 is the paper's SNIC-vs-host rate sweep, REM then NAT:
// throughput/p99 (top) and power/energy-efficiency (bottom) versus packet
// rate. Its operating points are Fig. 9's SNIC-only and host-only points,
// so it selects them from fig9, the result of Fig9, and simulates nothing;
// the returned points share fig9's slices.
func Fig4(fig9 []SweepResult) []SweepResult {
	var out []SweepResult
	for _, fn := range []nf.ID{nf.REM, nf.NAT} {
		if r, ok := find(fig9, func(r SweepResult) bool { return r.Fn == fn }); ok {
			out = append(out, SweepResult{Fn: fn, Rates: r.Rates, Points: map[server.Mode][]SweepPoint{
				server.SNICOnly: r.Points[server.SNICOnly],
				server.HostOnly: r.Points[server.HostOnly],
			}})
		}
	}
	return out
}

// Fig9 sweeps NAT and REM across Host, SNIC, and HAL: throughput, p99
// latency, and power versus packet rate — the paper's headline figure.
func Fig9(opt Options) ([]SweepResult, error) {
	var out []SweepResult
	for _, fn := range []nf.ID{nf.NAT, nf.REM} {
		r, err := sweep(fn, []server.Mode{server.HostOnly, server.SNICOnly, server.HAL}, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Tables renders a sweep as one table per metric family.
func (r SweepResult) Tables() []Table {
	modes := make([]server.Mode, 0, len(r.Points))
	for _, m := range []server.Mode{server.HostOnly, server.SNICOnly, server.HAL} {
		if _, ok := r.Points[m]; ok {
			modes = append(modes, m)
		}
	}
	mk := func(metric string, get func(SweepPoint) float64, fmtF func(float64) string) Table {
		t := Table{Title: fmt.Sprintf("%v: %s vs offered rate", r.Fn, metric)}
		t.Headers = []string{"Rate (Gbps)"}
		for _, m := range modes {
			t.Headers = append(t.Headers, m.String())
		}
		for i, rate := range r.Rates {
			row := []string{f1(rate)}
			for _, m := range modes {
				row = append(row, fmtF(get(r.Points[m][i])))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	return []Table{
		mk("throughput (Gbps)", func(p SweepPoint) float64 { return p.TPGbps }, f1),
		mk("p99 latency (us)", func(p SweepPoint) float64 { return p.P99us }, f1),
		mk("system power (W)", func(p SweepPoint) float64 { return p.PowerW }, f1),
		mk("energy efficiency (Gbps/W)", func(p SweepPoint) float64 { return p.EffGbpsW }, func(v float64) string { return fmt.Sprintf("%.4f", v) }),
	}
}

// CrossoverGbps reports the highest offered rate at which mode a is at
// least as energy-efficient as mode b — the §III-C crossover the HAL
// policy exploits.
func (r SweepResult) CrossoverGbps(a, b server.Mode) float64 {
	pa, pb := r.Points[a], r.Points[b]
	if pa == nil || pb == nil {
		return 0
	}
	last := 0.0
	for i := range r.Rates {
		if pa[i].EffGbpsW >= pb[i].EffGbpsW && pa[i].DropFrac < 0.01 {
			last = r.Rates[i]
		}
	}
	return last
}
