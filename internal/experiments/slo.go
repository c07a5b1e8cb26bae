package experiments

import (
	"fmt"

	"halsim/internal/server"
)

// SLOPoint is one Table II row: the SNIC processor's SLO throughput for a
// function and its energy-efficiency advantage over the host at that point.
type SLOPoint struct {
	Name string
	// SLOGbps is the highest offered rate at which the SNIC's p99 stays
	// within the latency budget and nothing drops.
	SLOGbps float64
	// SNICEE is the SNIC's energy efficiency at the SLO point normalized
	// to the host's at the same rate ("SNIC EE" in Table II).
	SNICEE float64
	// P99AtSLO documents the tail at the SLO point.
	P99AtSLO float64
}

// SLOResult powers Table II.
type SLOResult struct {
	Points []SLOPoint
}

// sloBudget decides whether p99 at a rate still counts as "not notably
// increased" over the low-rate reference: within 2× plus a 10 µs absolute
// allowance, mirroring the paper's 'without notably increasing p99'
// criterion.
func sloBudget(ref float64) float64 { return 2*ref + 10 }

// Table2 finds each function's SLO throughput on the SNIC processor and
// the energy-efficiency ratio against the host at that operating point.
func Table2(opt Options) (SLOResult, error) {
	opt = opt.withDefaults()
	var cases []compareCase
	for _, c := range compareCases() {
		if c.name == "REM-tea" {
			continue // Table II carries one REM row (the lite ruleset)
		}
		cases = append(cases, c)
	}
	points := make([]SLOPoint, len(cases))
	err := parMap(len(cases), func(ci int) error {
		c := cases[ci]
		base := server.Config{
			Mode: server.SNICOnly, Fn: c.fn, FnConfig: c.fnCfg,
			SNIC: c.snic, Host: c.host, Seed: opt.Seed,
		}
		capacity := capacityHint(server.SNICOnly, c)
		refRate := capacity * 0.2
		if refRate <= 0 {
			refRate = 0.02
		}
		ref, err := server.Run(base, server.RunConfig{Duration: opt.Duration, RateGbps: refRate})
		if err != nil {
			return fmt.Errorf("%s ref: %w", c.name, err)
		}
		budget := sloBudget(ref.P99us)

		// Scan upward in 10% capacity steps; keep the last admissible
		// point.
		slo := SLOPoint{Name: c.name, SLOGbps: refRate, P99AtSLO: ref.P99us}
		var sloRes server.Result = ref
		for frac := 0.3; frac <= 1.05; frac += 0.1 {
			rate := capacity * frac
			if rate > 100 {
				break
			}
			res, err := server.Run(base, server.RunConfig{Duration: opt.Duration, RateGbps: rate})
			if err != nil {
				return fmt.Errorf("%s scan: %w", c.name, err)
			}
			if res.P99us <= budget && res.DropFraction < 0.005 {
				slo.SLOGbps = rate
				slo.P99AtSLO = res.P99us
				sloRes = res
			}
		}

		// Host EE at the SLO operating point.
		hostCfg := base
		hostCfg.Mode = server.HostOnly
		host, err := server.Run(hostCfg, server.RunConfig{Duration: opt.Duration, RateGbps: slo.SLOGbps})
		if err != nil {
			return fmt.Errorf("%s host: %w", c.name, err)
		}
		if host.EffGbpsPerW > 0 {
			slo.SNICEE = sloRes.EffGbpsPerW / host.EffGbpsPerW
		}
		points[ci] = slo
		return nil
	})
	return SLOResult{Points: points}, err
}

// Table renders Table II.
func (r SLOResult) Table() Table {
	t := Table{
		Title:   "Table II: SNIC SLO throughput and normalized energy efficiency",
		Headers: []string{"Function", "SLO TP (Gbps)", "SNIC EE (vs host)", "p99@SLO (us)"},
		Notes: []string{
			"paper: KVS 3, Count 58, EMA 6, NAT 41, BM25 1, KNN 7, Bayes 0.1, REM 30, Crypto 28, Comp 43 Gbps",
			"paper: SNIC EE 1.14-1.55x at the SLO point",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{p.Name, f1(p.SLOGbps), f2(p.SNICEE), f1(p.P99AtSLO)})
	}
	return t
}
