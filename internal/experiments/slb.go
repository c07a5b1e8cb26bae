package experiments

import (
	"fmt"

	"halsim/internal/nf"
	"halsim/internal/server"
)

// SLBPoint is one Fig. 5 bar: SLB with a core count and threshold at
// 80 Gbps offered NAT traffic.
type SLBPoint struct {
	Cores    int
	FwdTh    float64
	TPGbps   float64
	P99us    float64
	DropFrac float64
}

// SLBResult powers Fig. 5, including the references the paper discusses:
// the SNIC CPU processing everything without SLB, HAL, and the §IV
// alternative of running SLB on the host CPU.
type SLBResult struct {
	Points   []SLBPoint
	SNICOnly SLBPoint
	HAL      SLBPoint
	HostSLB  SLBPoint
}

// Fig5 reproduces the software-load-balancer study: NAT at 80 Gbps
// offered, SLB on 1 or 4 SNIC CPU cores, Fwd_Th swept 20→60 Gbps.
func Fig5(opt Options) (SLBResult, error) {
	opt = opt.withDefaults()
	var out SLBResult
	const offered = 80.0
	run := func(cfg server.Config) (server.Result, error) {
		return server.Run(cfg, server.RunConfig{Duration: opt.Duration, RateGbps: offered})
	}
	type spec struct {
		cores int
		th    float64
	}
	var specs []spec
	for _, cores := range []int{1, 4} {
		for _, th := range []float64{20, 30, 40, 50, 60} {
			specs = append(specs, spec{cores, th})
		}
	}
	out.Points = make([]SLBPoint, len(specs))
	if err := parMap(len(specs), func(i int) error {
		sp := specs[i]
		res, err := run(server.Config{
			Mode: server.SLB, Fn: nf.NAT,
			SLBCores: sp.cores, SLBFwdThGbps: sp.th, Seed: opt.Seed,
		})
		if err != nil {
			return fmt.Errorf("slb c=%d th=%v: %w", sp.cores, sp.th, err)
		}
		out.Points[i] = SLBPoint{
			Cores: sp.cores, FwdTh: sp.th,
			TPGbps: res.AvgGbps, P99us: res.P99us, DropFrac: res.DropFraction,
		}
		return nil
	}); err != nil {
		return out, err
	}
	snic, err := run(server.Config{Mode: server.SNICOnly, Fn: nf.NAT, Seed: opt.Seed})
	if err != nil {
		return out, err
	}
	out.SNICOnly = SLBPoint{TPGbps: snic.AvgGbps, P99us: snic.P99us, DropFrac: snic.DropFraction}
	hal, err := run(server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: opt.Seed})
	if err != nil {
		return out, err
	}
	out.HAL = SLBPoint{TPGbps: hal.AvgGbps, P99us: hal.P99us, DropFrac: hal.DropFraction}
	hostSLB, err := run(server.Config{Mode: server.SLBHost, Fn: nf.NAT, SLBFwdThGbps: 40, Seed: opt.Seed})
	if err != nil {
		return out, err
	}
	out.HostSLB = SLBPoint{FwdTh: 40, TPGbps: hostSLB.AvgGbps, P99us: hostSLB.P99us, DropFrac: hostSLB.DropFraction}
	return out, nil
}

// Table renders Fig. 5.
func (r SLBResult) Table() Table {
	t := Table{
		Title:   "Fig 5: NAT throughput and p99 with SLB at 80 Gbps offered",
		Headers: []string{"Config", "FwdTh (Gbps)", "TP (Gbps)", "p99 (us)", "drop frac"},
		Notes: []string{
			"1 SLB core cannot forward the 60G excess: most packets drop (paper: 58-61%)",
			"4 SLB cores forward, but high FwdTh starves the 4 processing cores",
			"HAL reference shows the same offered load without SLB's penalties",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("SLB %d-core", p.Cores), f1(p.FwdTh),
			f1(p.TPGbps), f1(p.P99us), f2(p.DropFrac),
		})
	}
	t.Rows = append(t.Rows,
		[]string{"SNIC no-SLB", "-", f1(r.SNICOnly.TPGbps), f1(r.SNICOnly.P99us), f2(r.SNICOnly.DropFrac)},
		[]string{"SLB on host", f1(r.HostSLB.FwdTh), f1(r.HostSLB.TPGbps), f1(r.HostSLB.P99us), f2(r.HostSLB.DropFrac)},
		[]string{"HAL", "-", f1(r.HAL.TPGbps), f1(r.HAL.P99us), f2(r.HAL.DropFrac)},
	)
	return t
}
