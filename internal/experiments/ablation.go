package experiments

import (
	"fmt"

	"halsim/internal/core"
	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/platform"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/trace"
)

// AblationPoint is one ablation row.
type AblationPoint struct {
	Name     string
	TPGbps   float64
	P99us    float64
	PowerW   float64
	EffGbpsW float64
	DropFrac float64
}

// AblationResult is one ablation study.
type AblationResult struct {
	Title  string
	Metric string
	Points []AblationPoint
	Notes  []string
}

// Table renders an ablation study.
func (r AblationResult) Table() Table {
	t := Table{
		Title:   r.Title,
		Headers: []string{r.Metric, "TP (Gbps)", "p99 (us)", "W", "Gbps/W", "drop frac"},
		Notes:   r.Notes,
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Name, f1(p.TPGbps), f1(p.P99us), f1(p.PowerW),
			fmt.Sprintf("%.4f", p.EffGbpsW), f2(p.DropFrac),
		})
	}
	return t
}

func ablationPoint(name string, res server.Result) AblationPoint {
	return AblationPoint{
		Name: name, TPGbps: res.AvgGbps, P99us: res.P99us,
		PowerW: res.AvgPowerW, EffGbpsW: res.EffGbpsPerW, DropFrac: res.DropFraction,
	}
}

func halConfigWith(mut func(*core.Config)) *core.Config {
	c := core.DefaultConfig(packet.Addr{}, packet.Addr{})
	c.AdaptiveStep = true
	mut(&c)
	return &c
}

// AblationLBP compares the dynamic LBP against frozen thresholds — the
// design choice §V-B motivates: profiling offline works only if the pinned
// threshold happens to be right; the greedy run-time policy finds it.
func AblationLBP(opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	out := AblationResult{
		Title:  "Ablation: LBP policy vs frozen Fwd_Th (NAT at 80 Gbps)",
		Metric: "policy",
		Notes: []string{
			"frozen-high overloads the SNIC (drops + tail); frozen-low wastes the host;",
			"dynamic LBP lands at the SNIC's capacity without profiling",
		},
	}
	cases := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"dynamic adaptive", func(c *core.Config) {}},
		{"dynamic fixed-step", func(c *core.Config) { c.AdaptiveStep = false }},
		{"frozen @ 42 (oracle)", func(c *core.Config) { c.Frozen = true; c.InitialFwdThGbps = 42 }},
		{"frozen @ 20 (low)", func(c *core.Config) { c.Frozen = true; c.InitialFwdThGbps = 20 }},
		{"frozen @ 80 (high)", func(c *core.Config) { c.Frozen = true; c.InitialFwdThGbps = 80 }},
	}
	for _, cse := range cases {
		res, err := server.Run(
			server.Config{Mode: server.HAL, Fn: nf.NAT, HALConfig: halConfigWith(cse.mut), Seed: opt.Seed},
			server.RunConfig{Duration: opt.Duration, RateGbps: 80})
		if err != nil {
			return out, fmt.Errorf("ablation %s: %w", cse.name, err)
		}
		out.Points = append(out.Points, ablationPoint(cse.name, res))
	}
	return out, nil
}

// AblationWatermarks sweeps the Rx-occupancy watermarks that trade HAL's
// p99 against how close the SNIC runs to its capacity.
func AblationWatermarks(opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	out := AblationResult{
		Title:  "Ablation: LBP occupancy watermarks (NAT at 80 Gbps)",
		Metric: "WMLow/WMHigh",
		Notes:  []string{"higher watermarks admit deeper SNIC queues: more SNIC share, worse p99"},
	}
	for _, wm := range []struct{ lo, hi int }{{1, 8}, {2, 16}, {8, 64}, {32, 256}} {
		res, err := server.Run(
			server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: opt.Seed,
				HALConfig: halConfigWith(func(c *core.Config) { c.WMLow, c.WMHigh = wm.lo, wm.hi })},
			server.RunConfig{Duration: opt.Duration, RateGbps: 80})
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, ablationPoint(fmt.Sprintf("%d/%d", wm.lo, wm.hi), res))
	}
	return out, nil
}

// AblationMonitorPeriod sweeps the traffic monitor's sampling window: too
// coarse and the director chases stale rates through bursts; the paper's
// 10 µs is the sweet spot the HLB hardware makes cheap.
func AblationMonitorPeriod(opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	out := AblationResult{
		Title:  "Ablation: traffic-monitor window (NAT, hadoop trace)",
		Metric: "window",
		Notes:  []string{"coarse windows mis-split bursts between SNIC and host"},
	}
	w := trace.Hadoop
	for _, win := range []sim.Time{sim.Microsecond, 10 * sim.Microsecond, 100 * sim.Microsecond, sim.Millisecond} {
		res, err := server.Run(
			server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: opt.Seed,
				HALConfig: halConfigWith(func(c *core.Config) { c.MonitorPeriod = win })},
			server.RunConfig{Duration: opt.TraceDuration, Workload: &w})
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, ablationPoint(win.String(), res))
	}
	return out, nil
}

// AblationPacketSize revisits §III-A's small-packet observation: per-packet
// overheads dominate at 64 B, collapsing the wimpy SNIC cores' throughput
// far below their MTU numbers while the host holds up better.
func AblationPacketSize(opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	out := AblationResult{
		Title:  "Ablation: packet size (Count at 40 Gbps offered)",
		Metric: "mode@size",
		Notes:  []string{"64 B packets pay per-packet overhead 23x more often than MTU"},
	}
	sizes := map[string]*trace.SizeDist{
		"64B":     trace.NewSizeDist([]int{64}, []float64{1}),
		"bimodal": trace.Bimodal64_1500(),
		"MTU":     trace.MTUOnly(),
	}
	for _, name := range []string{"64B", "bimodal", "MTU"} {
		for _, mode := range []server.Mode{server.SNICOnly, server.HostOnly} {
			res, err := server.Run(
				server.Config{Mode: mode, Fn: nf.Count, Seed: opt.Seed},
				server.RunConfig{Duration: opt.Duration, RateGbps: 40, Sizes: sizes[name]})
			if err != nil {
				return out, err
			}
			out.Points = append(out.Points, ablationPoint(fmt.Sprintf("%v@%s", mode, name), res))
		}
	}
	return out, nil
}

// DVFSEstimate reproduces the §VIII back-of-envelope: because the SNIC
// contributes only a few watts to a ~200 W system, even perfect DVFS on the
// SNIC processor moves system-wide power by ~2% at most.
func DVFSEstimate() Table {
	pm := platform.BlueField2().Power
	full := pm.Watts(false, 0, 40, 1)
	dvfsIdeal := pm.Watts(false, 0, 40, 0) // SNIC dynamic power scaled to zero
	saving := (full - dvfsIdeal) / full
	return Table{
		Title:   "§VIII: bound on SNIC DVFS benefit",
		Headers: []string{"Scenario", "System W"},
		Rows: [][]string{
			{"SNIC busy, no DVFS", f1(full)},
			{"SNIC busy, ideal DVFS (dynamic→0)", f1(dvfsIdeal)},
			{"max system-wide saving", fmt.Sprintf("%.1f%%", saving*100)},
		},
		Notes: []string{"paper: 'deploying DVFS will reduce the system-wide power consumption by only 2% at most'"},
	}
}

// AblationFunctionMix reproduces the §V-B motivation for a run-time
// policy: the workload starts as pure NAT and shifts to a 50/50 NAT+KNN
// mix mid-run, changing the SNIC's sustainable throughput underneath the
// balancer. The dynamic LBP re-converges; a threshold profiled offline for
// pure NAT overloads the SNIC after the shift.
func AblationFunctionMix(opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	out := AblationResult{
		Title:  "Ablation: run-time function mix shift (NAT -> 50% KNN at mid-run, 70 Gbps)",
		Metric: "policy",
		Notes: []string{
			"the mix shift changes the SNIC's capacity from ~42G to ~23G mid-run;",
			"only the dynamic LBP follows it (the paper's case for run-time adaptation)",
		},
	}
	base := server.Config{
		Mode: server.HAL, Fn: nf.NAT,
		MixOn: true, MixFn: nf.KNN,
		MixFractionBefore: 0, MixFraction: 0.5,
		MixShiftAt: opt.Duration / 3,
		Seed:       opt.Seed,
	}
	rc := server.RunConfig{Duration: opt.Duration, RateGbps: 70}

	dyn := base
	res, err := server.Run(dyn, rc)
	if err != nil {
		return out, err
	}
	out.Points = append(out.Points, ablationPoint("dynamic LBP", res))

	for _, th := range []float64{42, 23} {
		cfg := base
		cfg.HALConfig = halConfigWith(func(c *core.Config) {
			c.Frozen = true
			c.InitialFwdThGbps = th
		})
		res, err := server.Run(cfg, rc)
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, ablationPoint(fmt.Sprintf("frozen @ %.0f", th), res))
	}
	return out, nil
}
