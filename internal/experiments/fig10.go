package experiments

import (
	"fmt"

	"halsim/internal/nf"
	"halsim/internal/platform"
	"halsim/internal/server"
)

// Fig10Point compares the BF-3 CPU against the Sapphire Rapids CPU for one
// software-only function.
type Fig10Point struct {
	Name        string
	BF3         PlatformPoint
	SPR         PlatformPoint
	TPRatio     float64 // BF3/SPR
	P99Ratio    float64 // BF3/SPR
	EERatioSPRv float64 // SPR/BF3 energy efficiency
}

// Fig10Result powers Fig. 10.
type Fig10Result struct {
	Points []Fig10Point
}

// Fig10 runs the software-only functions on the BF-3 CPU model and the
// Sapphire Rapids CPU model. As in the paper, the client is limited to
// 100 Gbps, which flattens the comparison for lightweight functions
// (Count, NAT) even though both CPUs could go further on a 200G link.
func Fig10(opt Options) (Fig10Result, error) {
	opt = opt.withDefaults()
	bf3 := platform.BlueField3()
	spr := platform.SapphireRapids()
	fns := []nf.ID{nf.Count, nf.EMA, nf.NAT, nf.KNN, nf.KVS, nf.BM25, nf.Bayes, nf.REM, nf.Crypto, nf.Comp}
	points := make([]Fig10Point, len(fns))
	err := parMap(len(fns), func(fi int) error {
		fn := fns[fi]
		measure := func(mode server.Mode, pl *platform.Platform) (PlatformPoint, error) {
			cfg := server.Config{Mode: mode, Fn: fn, Seed: opt.Seed}
			if mode == server.SNICOnly {
				cfg.SNIC = pl
			} else {
				cfg.Host = pl
			}
			return maxSustainablePoint(cfg, pl.Profile(fn).MaxGbps, opt)
		}
		b, err := measure(server.SNICOnly, bf3)
		if err != nil {
			return fmt.Errorf("fig10 %v/BF3: %w", fn, err)
		}
		s, err := measure(server.HostOnly, spr)
		if err != nil {
			return fmt.Errorf("fig10 %v/SPR: %w", fn, err)
		}
		p := Fig10Point{Name: fn.String(), BF3: b, SPR: s}
		if s.MaxGbps > 0 {
			p.TPRatio = b.MaxGbps / s.MaxGbps
		}
		if s.P99us > 0 {
			p.P99Ratio = b.P99us / s.P99us
		}
		if b.EffGbpsPerW > 0 {
			p.EERatioSPRv = s.EffGbpsPerW / b.EffGbpsPerW
		}
		points[fi] = p
		return nil
	})
	return Fig10Result{Points: points}, err
}

// Table renders Fig. 10.
func (r Fig10Result) Table() Table {
	t := Table{
		Title: "Fig 10: BF-3 CPU vs Sapphire Rapids CPU (software-only)",
		Headers: []string{"Function", "BF3 TP", "SPR TP", "TP ratio",
			"BF3 p99", "SPR p99", "p99 ratio", "SPR/BF3 EE"},
		Notes: []string{
			"paper: BF-3 up to 80% lower TP, up to 61x higher p99, SPR up to ~80% higher EE",
			"Count/NAT flatten because the 100G client link saturates first (§VIII)",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Name, f1(p.BF3.MaxGbps), f1(p.SPR.MaxGbps), f2(p.TPRatio),
			f1(p.BF3.P99us), f1(p.SPR.P99us), f1(p.P99Ratio), f2(p.EERatioSPRv),
		})
	}
	return t
}
