package experiments

import (
	"fmt"
	"slices"

	"halsim/internal/energy"
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

// Evidence is what Validate scores: the results of the Fig. 9, Fig. 5,
// Table V and Fig. 2/3 drivers, run at one Options.
type Evidence struct {
	Fig9    []SweepResult
	Fig5    SLBResult
	Table5  Tab5Result
	Compare CompareResult
}

// find returns the first element of s that match accepts.
func find[T any](s []T, match func(T) bool) (T, bool) {
	if i := slices.IndexFunc(s, match); i >= 0 {
		return s[i], true
	}
	var zero T
	return zero, false
}

// Validate scores the paper's headline claims on the results the figure
// and table drivers produced, so each claim reads the numbers its table
// prints. A claim whose point is missing from ev fails with the measured
// value "missing". It is the programmatic form of EXPERIMENTS.md.
func Validate(ev Evidence) ValidationResult {
	var out ValidationResult
	add := func(claim string, have bool, measured string, pass bool) {
		if !have {
			measured, pass = "missing", false
		}
		out.Checks = append(out.Checks, Check{Claim: claim, Measured: measured, Pass: pass})
	}
	natSweep, _ := find(ev.Fig9, func(r SweepResult) bool { return r.Fn == nf.NAT })
	nat := func(mode server.Mode, rate float64) (SweepPoint, bool) {
		return find(natSweep.Points[mode], func(p SweepPoint) bool { return p.RateGbps == rate })
	}
	slb := func(cores int) (SLBPoint, bool) {
		return find(ev.Fig5.Points, func(p SLBPoint) bool { return p.Cores == cores && p.FwdTh == 20 })
	}
	compared := func(name string) (ComparePoint, bool) {
		return find(ev.Compare.Points, func(p ComparePoint) bool { return p.Name == name })
	}
	snic80, okSNIC80 := nat(server.SNICOnly, 80)
	host80, okHost80 := nat(server.HostOnly, 80)
	host100, okHost100 := nat(server.HostOnly, 100)
	hal80, okHAL80 := nat(server.HAL, 80)
	snic20, okSNIC20 := nat(server.SNICOnly, 20)
	hal20, okHAL20 := nat(server.HAL, 20)

	// 1. SNIC NAT saturation ≈ 40–45 Gbps (Table V).
	add("SNIC processor saturates NAT at 40-45 Gbps", okSNIC80,
		fmt.Sprintf("%.1f Gbps", snic80.TPGbps), snic80.TPGbps >= 38 && snic80.TPGbps <= 47)

	// 2. Host NAT ≈ 89–99 Gbps.
	add("host processor sustains NAT at ~90+ Gbps", okHost100,
		fmt.Sprintf("%.1f Gbps", host100.TPGbps), host100.TPGbps >= 85)

	// 3. SNIC p99 blows up past saturation (Fig 4/9: 120x at 80G).
	ratio := snic80.P99us / host80.P99us
	add("SNIC p99 at 80G is >50x the host's (paper: 120x)", okSNIC80 && okHost80,
		fmt.Sprintf("%.0fx", ratio), ratio > 50)

	// 4. HAL tracks offered load past SNIC saturation with host-class p99.
	add("HAL delivers the full offered 80G (SNIC alone cannot)", okHAL80,
		fmt.Sprintf("%.1f Gbps, p99 %.0fus", hal80.TPGbps, hal80.P99us),
		hal80.TPGbps >= 76 && hal80.P99us < 200)

	// 5. HAL power between SNIC-only and host-only at high rate (Fig 9).
	add("HAL consumes 11-27% less power than host-only at high rates", okHAL80 && okHost80,
		fmt.Sprintf("HAL %.0fW vs host %.0fW", hal80.PowerW, host80.PowerW),
		hal80.PowerW < host80.PowerW*0.98)

	// 6. HAL p99 ≈ SNIC p99 at low rates (within ~HLB overhead).
	add("below SNIC capacity HAL adds only ~HLB latency (~0.8us + noise)", okHAL20 && okSNIC20,
		fmt.Sprintf("p50 %+.2fus", hal20.P50us-snic20.P50us), hal20.P50us-snic20.P50us < 2.0)

	// 7. SLB with one core drops most packets at 80G (Fig 5: 58-61%).
	slb1, okSLB1 := slb(1)
	add("SLB with 1 SNIC core drops ~58-61% at 80G offered", okSLB1,
		fmt.Sprintf("%.0f%% dropped", slb1.DropFrac*100), slb1.DropFrac > 0.40 && slb1.DropFrac < 0.75)

	// 8. SLB with 4 cores keeps up but with worse p99 than HAL (Fig 5).
	slb4, okSLB4 := slb(4)
	add("SLB(4 cores) reaches ~80G but with higher p99 than HAL", okSLB4 && okHAL80,
		fmt.Sprintf("%.1fG at p99 %.0fus vs HAL %.0fus", slb4.TPGbps, slb4.P99us, hal80.P99us),
		slb4.TPGbps > 65 && slb4.P99us > hal80.P99us)

	// 9. Trace workloads: HAL EE gain vs host across web/cache/hadoop
	// (paper: 28-35% for stateless singles; abstract headline 31%).
	var eeGainSum float64
	var eeRuns, remRows int
	for _, w := range trace.Workloads {
		row, ok := find(ev.Table5.Rows, func(r Tab5Row) bool { return r.Workload == w && r.Config == "REM" })
		if !ok {
			continue
		}
		remRows++
		if hostEE := energy.EfficiencyGbpsPerWatt(row.Host.AvgGbps, row.Host.PowerW); hostEE > 0 {
			eeGainSum += energy.EfficiencyGbpsPerWatt(row.HAL.AvgGbps, row.HAL.PowerW)/hostEE - 1
			eeRuns++
		}
	}
	eeGain := eeGainSum / float64(eeRuns) * 100
	add("HAL improves energy efficiency ~31% over host-only on traces", remRows == len(trace.Workloads),
		fmt.Sprintf("%+.0f%% (REM, 3 workloads)", eeGain), eeGain > 15)

	// 10. REM ruleset flip (Fig 2): host wins tea, SNIC wins lite.
	tea, okTea := compared("REM-tea")
	lite, okLite := compared("REM-lite")
	add("REM winner flips with ruleset: host wins tea (+93%), SNIC wins lite (19x)", okTea && okLite,
		fmt.Sprintf("tea host/SNIC %.2fx, lite SNIC/host %.1fx",
			tea.Host.MaxGbps/tea.SNIC.MaxGbps, lite.SNIC.MaxGbps/lite.Host.MaxGbps),
		tea.Host.MaxGbps > tea.SNIC.MaxGbps*1.3 && lite.SNIC.MaxGbps > lite.Host.MaxGbps*8)

	return out
}
