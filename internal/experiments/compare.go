package experiments

import (
	"fmt"

	"halsim/internal/nf"
	"halsim/internal/platform"
	"halsim/internal/server"
)

// PlatformPoint is one platform's measurement at its maximum sustainable
// operating point.
type PlatformPoint struct {
	MaxGbps     float64
	P99us       float64
	PowerW      float64
	EffGbpsPerW float64
}

// ComparePoint is one function's SNIC-vs-host comparison (a Fig. 2/3 bar
// pair).
type ComparePoint struct {
	Name string
	SNIC PlatformPoint
	Host PlatformPoint
}

// CompareResult powers Fig. 2 (throughput & p99) and Fig. 3 (power & EE).
type CompareResult struct {
	Points []ComparePoint
}

// compareCase describes one benchmark variant. snic and host are nil for
// the default BlueField-2 and Xeon platforms.
type compareCase struct {
	name  string
	fn    nf.ID
	fnCfg string
	snic  *platform.Platform
	host  *platform.Platform
}

// withProfile returns pl with fn's profile replaced by p: a ruleset
// variant of the same processor.
func withProfile(pl *platform.Platform, fn nf.ID, p platform.FnProfile) *platform.Platform {
	pl.Profiles[fn] = p
	return pl
}

// compareCases lists the ten functions, with REM split into its two
// rulesets as in §III-A.
func compareCases() []compareCase {
	return []compareCase{
		{name: "KVS", fn: nf.KVS},
		{name: "Count", fn: nf.Count},
		{name: "EMA", fn: nf.EMA},
		{name: "NAT", fn: nf.NAT},
		{name: "BM25", fn: nf.BM25},
		{name: "KNN", fn: nf.KNN},
		{name: "Bayes", fn: nf.Bayes},
		{name: "REM-tea", fn: nf.REM, fnCfg: "tea", snic: withProfile(platform.BlueField2(), nf.REM, platform.REMSimpleSNICAccel())},
		{name: "REM-lite", fn: nf.REM, fnCfg: "lite", host: withProfile(platform.HostXeon(), nf.REM, platform.REMComplexHost())},
		{name: "Crypto", fn: nf.Crypto},
		{name: "Comp", fn: nf.Comp},
	}
}

// maxSustainablePoint finds cfg's saturation throughput, then remeasures
// p99/power at 85% of it — the paper's "maximum sustainable throughput
// point" methodology (§III-A). capacity is the calibrated capacity in Gbps.
func maxSustainablePoint(cfg server.Config, capacity float64, opt Options) (PlatformPoint, error) {
	// Probe at 1.4× the calibrated capacity (capped at line rate) to
	// find the real saturation point without simulating pointless drops.
	probe := capacity * 1.4
	if probe > 100 {
		probe = 100
	}
	if probe < 0.05 {
		probe = 0.05
	}
	maxRun, err := server.Run(cfg, server.RunConfig{Duration: opt.Duration, RateGbps: probe})
	if err != nil {
		return PlatformPoint{}, err
	}
	op := maxRun.AvgGbps * 0.85
	if op <= 0 {
		op = probe * 0.5
	}
	opRun, err := server.Run(cfg, server.RunConfig{Duration: opt.Duration, RateGbps: op})
	if err != nil {
		return PlatformPoint{}, err
	}
	return PlatformPoint{
		MaxGbps:     maxRun.AvgGbps,
		P99us:       opRun.P99us,
		PowerW:      opRun.AvgPowerW,
		EffGbpsPerW: opRun.EffGbpsPerW,
	}, nil
}

func capacityHint(mode server.Mode, c compareCase) float64 {
	if mode == server.SNICOnly {
		if c.snic != nil {
			return c.snic.Profile(c.fn).MaxGbps
		}
		return platform.BlueField2().Profile(c.fn).MaxGbps
	}
	if c.host != nil {
		return c.host.Profile(c.fn).MaxGbps
	}
	return platform.HostXeon().Profile(c.fn).MaxGbps
}

// CompareSNICHost runs the full Fig. 2/3 comparison (cases in parallel).
func CompareSNICHost(opt Options) (CompareResult, error) {
	opt = opt.withDefaults()
	cases := compareCases()
	points := make([]ComparePoint, len(cases))
	err := parMap(len(cases), func(i int) error {
		c := cases[i]
		var sides [2]PlatformPoint
		for j, mode := range []server.Mode{server.SNICOnly, server.HostOnly} {
			cfg := server.Config{Mode: mode, Fn: c.fn, FnConfig: c.fnCfg, SNIC: c.snic, Host: c.host, Seed: opt.Seed}
			p, err := maxSustainablePoint(cfg, capacityHint(mode, c), opt)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", c.name, mode, err)
			}
			sides[j] = p
		}
		points[i] = ComparePoint{Name: c.name, SNIC: sides[0], Host: sides[1]}
		return nil
	})
	return CompareResult{Points: points}, err
}

// Fig2 renders maximum throughput and p99 latency of the SNIC processor
// normalized to the host processor.
func (r CompareResult) Fig2() Table {
	t := Table{
		Title:   "Fig 2: max throughput and p99 latency, SNIC normalized to host",
		Headers: []string{"Function", "SNIC TP (Gbps)", "Host TP (Gbps)", "TP ratio", "SNIC p99 (us)", "Host p99 (us)", "p99 ratio"},
		Notes: []string{
			"TP ratio <1 and p99 ratio >1 mean the host wins (most software functions)",
			"REM-lite and Comp are where the SNIC accelerators win, as in §III-A",
		},
	}
	for _, p := range r.Points {
		tpRatio, latRatio := 0.0, 0.0
		if p.Host.MaxGbps > 0 {
			tpRatio = p.SNIC.MaxGbps / p.Host.MaxGbps
		}
		if p.Host.P99us > 0 {
			latRatio = p.SNIC.P99us / p.Host.P99us
		}
		t.Rows = append(t.Rows, []string{
			p.Name, f2(p.SNIC.MaxGbps), f2(p.Host.MaxGbps), f2(tpRatio),
			f1(p.SNIC.P99us), f1(p.Host.P99us), f2(latRatio),
		})
	}
	return t
}

// Fig3 renders average power and energy efficiency, SNIC normalized to
// host, at the maximum sustainable throughput point.
func (r CompareResult) Fig3() Table {
	t := Table{
		Title:   "Fig 3: average power and energy efficiency, SNIC normalized to host",
		Headers: []string{"Function", "SNIC W", "Host W", "power ratio", "SNIC EE", "Host EE", "EE ratio"},
		Notes: []string{
			"EE = throughput / system power (Gbps/W); host usually wins at its own max-TP point (§III-B)",
		},
	}
	for _, p := range r.Points {
		pr, er := 0.0, 0.0
		if p.Host.PowerW > 0 {
			pr = p.SNIC.PowerW / p.Host.PowerW
		}
		if p.Host.EffGbpsPerW > 0 {
			er = p.SNIC.EffGbpsPerW / p.Host.EffGbpsPerW
		}
		t.Rows = append(t.Rows, []string{
			p.Name, f1(p.SNIC.PowerW), f1(p.Host.PowerW), f2(pr),
			fmt.Sprintf("%.4f", p.SNIC.EffGbpsPerW), fmt.Sprintf("%.4f", p.Host.EffGbpsPerW), f2(er),
		})
	}
	return t
}
