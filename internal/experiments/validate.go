package experiments

import (
	"fmt"

	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/trace"
)

// Check is one executable paper claim.
type Check struct {
	Claim    string // the paper's statement
	Measured string // what this reproduction observed
	Pass     bool
}

// ValidationResult aggregates the claim checks.
type ValidationResult struct {
	Checks []Check
}

// Passed reports whether every check passed.
func (r ValidationResult) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Table renders the validation scoreboard.
func (r ValidationResult) Table() Table {
	t := Table{
		Title:   "Validation: paper claims vs this reproduction",
		Headers: []string{"Status", "Claim", "Measured"},
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		t.Rows = append(t.Rows, []string{status, c.Claim, c.Measured})
	}
	return t
}

// Validate executes the paper's headline claims end to end and scores
// them. It is the programmatic form of EXPERIMENTS.md.
func Validate(opt Options) (ValidationResult, error) {
	opt = opt.withDefaults()
	var out ValidationResult
	add := func(claim, measured string, pass bool) {
		out.Checks = append(out.Checks, Check{Claim: claim, Measured: measured, Pass: pass})
	}
	run := func(cfg server.Config, rate float64) (server.Result, error) {
		cfg.Seed = opt.Seed
		return server.Run(cfg, server.RunConfig{Duration: opt.Duration, RateGbps: rate})
	}

	// 1. SNIC NAT saturation ≈ 40–45 Gbps (Table V).
	snic80, err := run(server.Config{Mode: server.SNICOnly, Fn: nf.NAT}, 80)
	if err != nil {
		return out, err
	}
	add("SNIC processor saturates NAT at 40-45 Gbps",
		fmt.Sprintf("%.1f Gbps", snic80.AvgGbps),
		snic80.AvgGbps >= 38 && snic80.AvgGbps <= 47)

	// 2. Host NAT ≈ 89–99 Gbps.
	host95, err := run(server.Config{Mode: server.HostOnly, Fn: nf.NAT}, 95)
	if err != nil {
		return out, err
	}
	add("host processor sustains NAT at ~90+ Gbps",
		fmt.Sprintf("%.1f Gbps", host95.AvgGbps), host95.AvgGbps >= 85)

	// 3. SNIC p99 blows up past saturation (Fig 4/9: 120x at 80G).
	hostP99, err := run(server.Config{Mode: server.HostOnly, Fn: nf.NAT}, 80)
	if err != nil {
		return out, err
	}
	ratio := snic80.P99us / hostP99.P99us
	add("SNIC p99 at 80G is >50x the host's (paper: 120x)",
		fmt.Sprintf("%.0fx", ratio), ratio > 50)

	// 4. HAL tracks offered load past SNIC saturation with host-class p99.
	hal80, err := run(server.Config{Mode: server.HAL, Fn: nf.NAT}, 80)
	if err != nil {
		return out, err
	}
	add("HAL delivers the full offered 80G (SNIC alone cannot)",
		fmt.Sprintf("%.1f Gbps, p99 %.0fus", hal80.AvgGbps, hal80.P99us),
		hal80.AvgGbps >= 76 && hal80.P99us < 200)

	// 5. HAL power between SNIC-only and host-only at high rate (Fig 9).
	add("HAL consumes 11-27% less power than host-only at high rates",
		fmt.Sprintf("HAL %.0fW vs host %.0fW", hal80.AvgPowerW, hostP99.AvgPowerW),
		hal80.AvgPowerW < hostP99.AvgPowerW*0.98)

	// 6. HAL p99 ≈ SNIC p99 at low rates (within ~HLB overhead).
	hal20, err := run(server.Config{Mode: server.HAL, Fn: nf.NAT}, 20)
	if err != nil {
		return out, err
	}
	snic20, err := run(server.Config{Mode: server.SNICOnly, Fn: nf.NAT}, 20)
	if err != nil {
		return out, err
	}
	add("below SNIC capacity HAL adds only ~HLB latency (~0.8us + noise)",
		fmt.Sprintf("p50 %+.2fus", hal20.P50us-snic20.P50us),
		hal20.P50us-snic20.P50us < 2.0)

	// 7. SLB with one core drops most packets at 80G (Fig 5: 58-61%).
	slb1, err := run(server.Config{Mode: server.SLB, Fn: nf.NAT, SLBCores: 1, SLBFwdThGbps: 20}, 80)
	if err != nil {
		return out, err
	}
	add("SLB with 1 SNIC core drops ~58-61% at 80G offered",
		fmt.Sprintf("%.0f%% dropped", slb1.DropFraction*100),
		slb1.DropFraction > 0.40 && slb1.DropFraction < 0.75)

	// 8. SLB with 4 cores keeps up but with worse p99 than HAL (Fig 5).
	slb4, err := run(server.Config{Mode: server.SLB, Fn: nf.NAT, SLBCores: 4, SLBFwdThGbps: 20}, 80)
	if err != nil {
		return out, err
	}
	add("SLB(4 cores) reaches ~80G but with higher p99 than HAL",
		fmt.Sprintf("%.1fG at p99 %.0fus vs HAL %.0fus", slb4.AvgGbps, slb4.P99us, hal80.P99us),
		slb4.AvgGbps > 65 && slb4.P99us > hal80.P99us)

	// 9. Trace workloads: HAL EE gain vs host across web/cache/hadoop
	// (paper: 28-35% for stateless singles; abstract headline 31%).
	var eeGainSum float64
	var eeRuns int
	for _, w := range trace.Workloads {
		wl := w
		hostT, err := server.Run(server.Config{Mode: server.HostOnly, Fn: nf.REM, Seed: opt.Seed},
			server.RunConfig{Duration: opt.TraceDuration, Workload: &wl})
		if err != nil {
			return out, err
		}
		halT, err := server.Run(server.Config{Mode: server.HAL, Fn: nf.REM, Seed: opt.Seed},
			server.RunConfig{Duration: opt.TraceDuration, Workload: &wl})
		if err != nil {
			return out, err
		}
		if hostT.EffGbpsPerW > 0 {
			eeGainSum += halT.EffGbpsPerW/hostT.EffGbpsPerW - 1
			eeRuns++
		}
	}
	eeGain := eeGainSum / float64(eeRuns) * 100
	add("HAL improves energy efficiency ~31% over host-only on traces",
		fmt.Sprintf("%+.0f%% (REM, 3 workloads)", eeGain), eeGain > 15)

	// 10. REM ruleset flip (Fig 2): host wins tea, SNIC wins lite.
	cases := compareCases()
	var tea, lite compareCase
	for _, c := range cases {
		if c.name == "REM-tea" {
			tea = c
		}
		if c.name == "REM-lite" {
			lite = c
		}
	}
	teaS, err := measureMaxPoint(server.SNICOnly, tea, opt)
	if err != nil {
		return out, err
	}
	teaH, err := measureMaxPoint(server.HostOnly, tea, opt)
	if err != nil {
		return out, err
	}
	liteS, err := measureMaxPoint(server.SNICOnly, lite, opt)
	if err != nil {
		return out, err
	}
	liteH, err := measureMaxPoint(server.HostOnly, lite, opt)
	if err != nil {
		return out, err
	}
	add("REM winner flips with ruleset: host wins tea (+93%), SNIC wins lite (19x)",
		fmt.Sprintf("tea host/SNIC %.2fx, lite SNIC/host %.1fx",
			teaH.MaxGbps/teaS.MaxGbps, liteS.MaxGbps/liteH.MaxGbps),
		teaH.MaxGbps > teaS.MaxGbps*1.3 && liteS.MaxGbps > liteH.MaxGbps*8)

	return out, nil
}
