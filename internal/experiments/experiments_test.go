package experiments

import (
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/trace"
)

// quick returns options sized for unit tests: shapes still hold at these
// durations, absolute values get noisier.
func quick() Options {
	return Options{Duration: 60 * sim.Millisecond, TraceDuration: 120 * sim.Millisecond, Seed: 1}
}

// heavy marks a test that runs full simulations; CI's race pass runs with
// -short and skips these (the plain test pass covers them).
func heavy(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation-heavy experiment; skipped in -short mode")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:   "demo",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"xxxxxxx", "1"}},
		Notes:   []string{"a note"},
	}
	s := tb.Render()
	for _, want := range []string{"=== demo ===", "long-header", "xxxxxxx", "note: a note", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

// The quick Fig. 2/3 comparison, Fig. 5 and Table V, each run once and
// shared: their shape tests and the claim scoring of Validate read the same
// results.
var (
	compare = sync.OnceValues(func() (CompareResult, error) { return CompareSNICHost(quick()) })
	fig5    = sync.OnceValues(func() (SLBResult, error) { return Fig5(quick()) })
	tab5    = sync.OnceValues(func() (Tab5Result, error) { return Table5(quick()) })
)

func TestCompareShapes(t *testing.T) {
	heavy(t)
	r, err := compare()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 11 {
		t.Fatalf("points = %d, want 11 (10 fns, REM split)", len(r.Points))
	}
	byName := map[string]ComparePoint{}
	for _, p := range r.Points {
		byName[p.Name] = p
		if p.SNIC.MaxGbps <= 0 || p.Host.MaxGbps <= 0 {
			t.Errorf("%s: zero throughput", p.Name)
		}
	}
	// Fig 2 shapes: host wins software functions; SNIC wins REM-lite and
	// compression; QAT crypto crushes the PKA.
	for _, name := range []string{"KVS", "Count", "EMA", "NAT", "BM25", "KNN", "Bayes"} {
		p := byName[name]
		if p.SNIC.MaxGbps >= p.Host.MaxGbps {
			t.Errorf("%s: SNIC TP %.1f should trail host %.1f", name, p.SNIC.MaxGbps, p.Host.MaxGbps)
		}
	}
	if p := byName["REM-lite"]; p.SNIC.MaxGbps < p.Host.MaxGbps*8 {
		t.Errorf("REM-lite: SNIC %.1f should dominate host %.1f (paper: 19x)", p.SNIC.MaxGbps, p.Host.MaxGbps)
	}
	if p := byName["REM-tea"]; p.Host.MaxGbps < p.SNIC.MaxGbps*1.3 {
		t.Errorf("REM-tea: host %.1f should beat SNIC %.1f (paper: +93%%)", p.Host.MaxGbps, p.SNIC.MaxGbps)
	}
	if p := byName["Comp"]; p.SNIC.MaxGbps <= p.Host.MaxGbps {
		t.Error("Comp: SNIC Deflate engine should beat Skylake QAT")
	}
	if p := byName["Crypto"]; p.Host.MaxGbps < p.SNIC.MaxGbps*1.5 {
		t.Error("Crypto: QAT should clearly beat the SNIC PKA")
	}
	// Rendering includes every function.
	fig2 := r.Fig2().Render()
	fig3 := r.Fig3().Render()
	for _, name := range []string{"KVS", "REM-lite", "Comp"} {
		if !strings.Contains(fig2, name) || !strings.Contains(fig3, name) {
			t.Errorf("figures missing %s", name)
		}
	}
}

// fig9 is the quick Fig. 9 sweep, run once and shared: its SNIC-only and
// host-only points are Fig. 4's, and Validate scores its NAT points.
var fig9 = sync.OnceValues(func() ([]SweepResult, error) { return Fig9(quick()) })

func TestFig9Shapes(t *testing.T) {
	heavy(t)
	rs, err := fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("fig9 should cover NAT and REM, got %d", len(rs))
	}
	for _, r := range rs {
		snic := r.Points[server.SNICOnly]
		host := r.Points[server.HostOnly]
		hal := r.Points[server.HAL]
		last := len(r.Rates) - 1
		// SNIC saturates well below line rate; HAL and host keep climbing.
		if snic[last].TPGbps > 50 {
			t.Errorf("%v: SNIC-only TP %.1f at 100G should saturate ≈42", r.Fn, snic[last].TPGbps)
		}
		if hal[last].TPGbps < 85 || host[last].TPGbps < 85 {
			t.Errorf("%v: HAL %.1f / host %.1f should track ≈100G", r.Fn, hal[last].TPGbps, host[last].TPGbps)
		}
		// SNIC p99 blows up at saturation; HAL's does not.
		if snic[last].P99us < 10*hal[last].P99us {
			t.Errorf("%v: SNIC p99 %.0f vs HAL %.0f — saturation cliff missing", r.Fn, snic[last].P99us, hal[last].P99us)
		}
		// HAL power sits between SNIC-only and host-only at high rate.
		if !(hal[last].PowerW < host[last].PowerW) {
			t.Errorf("%v: HAL power %.0f should undercut host %.0f", r.Fn, hal[last].PowerW, host[last].PowerW)
		}
		// At low rates HAL is more efficient than host.
		if hal[1].EffGbpsW <= host[1].EffGbpsW {
			t.Errorf("%v: HAL EE %.4f should beat host %.4f at 10G", r.Fn, hal[1].EffGbpsW, host[1].EffGbpsW)
		}
		for _, tb := range r.Tables() {
			if !strings.Contains(tb.Render(), "HAL") {
				t.Error("fig9 table missing HAL column")
			}
		}
	}
}

func TestFig4CrossoverExists(t *testing.T) {
	heavy(t)
	rs, err := fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		cross := r.CrossoverGbps(server.SNICOnly, server.HostOnly)
		// Paper: SNIC wins EE below ~30 (REM) / ~41 (NAT) Gbps.
		if cross < 10 || cross > 60 {
			t.Errorf("%v: SNIC EE crossover at %.0fG, want within [10,60]", r.Fn, cross)
		}
	}

	// Fig. 4 is Fig. 9 minus HAL: REM then NAT, Fig. 9's rates, and the
	// SNIC-only and host-only points themselves.
	fig4 := Fig4(rs)
	var fns []nf.ID
	for _, r := range fig4 {
		fns = append(fns, r.Fn)
	}
	if !slices.Equal(fns, []nf.ID{nf.REM, nf.NAT}) {
		t.Fatalf("Fig4 sweeps %v, want REM then NAT", fns)
	}
	for _, r4 := range fig4 {
		i := slices.IndexFunc(rs, func(r9 SweepResult) bool { return r9.Fn == r4.Fn })
		if i < 0 {
			t.Fatalf("Fig4 sweeps %v, which Fig9 does not", r4.Fn)
		}
		r9 := rs[i]
		if !slices.Equal(r4.Rates, r9.Rates) {
			t.Errorf("%v: Fig4 rates %v, Fig9 rates %v", r4.Fn, r4.Rates, r9.Rates)
		}
		if _, ok := r4.Points[server.HAL]; ok || len(r4.Points) != 2 {
			t.Errorf("%v: Fig4 modes %d (HAL %v), want SNIC-only and host-only", r4.Fn, len(r4.Points), ok)
		}
		for _, m := range []server.Mode{server.SNICOnly, server.HostOnly} {
			if !slices.Equal(r4.Points[m], r9.Points[m]) {
				t.Errorf("%v/%v: Fig4 points differ from Fig9's", r4.Fn, m)
			}
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	heavy(t)
	r, err := fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 10 {
		t.Fatalf("points = %d, want 2 cores × 5 thresholds", len(r.Points))
	}
	get := func(cores int, th float64) SLBPoint {
		for _, p := range r.Points {
			if p.Cores == cores && p.FwdTh == th {
				return p
			}
		}
		t.Fatalf("missing point %d/%v", cores, th)
		return SLBPoint{}
	}
	// One core drops most of the load.
	if p := get(1, 20); p.DropFrac < 0.4 {
		t.Errorf("1-core@20: drop %.2f, want ≈0.55", p.DropFrac)
	}
	// Four cores at low threshold approach offered load.
	if p := get(4, 20); p.TPGbps < 65 {
		t.Errorf("4-core@20: TP %.1f, want ≈75+", p.TPGbps)
	}
	// Raising FwdTh with 4 cores reduces throughput (processing-bound).
	if get(4, 60).TPGbps >= get(4, 20).TPGbps {
		t.Error("4-core TP should fall as FwdTh rises")
	}
	// SLB's best p99 still exceeds HAL's.
	best := get(4, 20)
	if best.P99us <= r.HAL.P99us {
		t.Errorf("SLB p99 %.1f should exceed HAL %.1f", best.P99us, r.HAL.P99us)
	}
	if !strings.Contains(r.Table().Render(), "SLB 4-core") {
		t.Error("table rendering broken")
	}
}

func TestFig8Table(t *testing.T) {
	tb := Fig8(quick())
	s := tb.Render()
	for _, w := range []string{"web", "cache", "hadoop"} {
		if !strings.Contains(s, w) {
			t.Fatalf("fig8 missing %s", w)
		}
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestTable1Render(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 23 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Render(), "Deflate") {
		t.Fatal("missing Deflate row")
	}
}

func TestCostsMeasurement(t *testing.T) {
	heavy(t)
	r, err := Costs(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.LUTs != 13861 {
		t.Fatal("published LUT count drifted")
	}
	// The measured p50 adder should be sub-2µs (paper: 800ns RTT).
	if r.MeasuredP50AdderUS < 0.2 || r.MeasuredP50AdderUS > 3 {
		t.Errorf("measured HLB adder %.2fµs, want ≈0.8µs", r.MeasuredP50AdderUS)
	}
	// "not notable" bandwidth (§V-A): well under 0.1% of the 100G link.
	lineKbps := 100e6 // 100 Gbps in kbps
	if r.ControlKbps/lineKbps > 0.001 {
		t.Errorf("control traffic %.1f kbps is %.4f%% of line rate", r.ControlKbps, 100*r.ControlKbps/lineKbps)
	}
	if !strings.Contains(r.Table().Render(), "LUT") {
		t.Error("costs table broken")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Duration != 300*sim.Millisecond || o.TraceDuration != 600*sim.Millisecond {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{Duration: sim.Millisecond}.withDefaults()
	if o2.Duration != sim.Millisecond {
		t.Fatal("explicit duration overridden")
	}
}

func TestTable2Shapes(t *testing.T) {
	heavy(t)
	r, err := Table2(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 10 {
		t.Fatalf("points = %d, want 10", len(r.Points))
	}
	by := map[string]SLOPoint{}
	for _, p := range r.Points {
		by[p.Name] = p
		if p.SLOGbps <= 0 {
			t.Errorf("%s: zero SLO throughput", p.Name)
		}
		// Table II: SNIC EE at the SLO point beats the host for every
		// function (paper: 1.14–1.55×).
		if p.SNICEE < 1.0 {
			t.Errorf("%s: SNIC EE %.2f at SLO point should exceed 1", p.Name, p.SNICEE)
		}
	}
	// Ordering shape: Count ≫ NAT > EMA > Bayes, as in the paper's table.
	if !(by["Count"].SLOGbps > by["NAT"].SLOGbps*0.9) {
		t.Errorf("Count SLO %.1f should be near the top", by["Count"].SLOGbps)
	}
	if by["Bayes"].SLOGbps > 1 {
		t.Errorf("Bayes SLO %.2f should be tiny (paper: 0.1G)", by["Bayes"].SLOGbps)
	}
	if by["NAT"].SLOGbps < 25 || by["NAT"].SLOGbps > 50 {
		t.Errorf("NAT SLO %.1f, paper ≈41", by["NAT"].SLOGbps)
	}
	if !strings.Contains(r.Table().Render(), "SNIC EE") {
		t.Error("table render broken")
	}
}

func TestTable5Shapes(t *testing.T) {
	heavy(t)
	r, err := tab5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 30 {
		t.Fatalf("rows = %d, want 3 workloads × 10 configs", len(r.Rows))
	}
	for _, row := range r.Rows {
		name := row.Workload.String() + "/" + row.Config
		// HAL throughput should at least match the host's (it adds the
		// SNIC's capacity on top). Allow small noise.
		if row.HAL.MaxGbps < row.Host.MaxGbps*0.9 {
			t.Errorf("%s: HAL max TP %.1f far below host %.1f", name, row.HAL.MaxGbps, row.Host.MaxGbps)
		}
		// HAL p99 far below SNIC-only p99 whenever the SNIC struggled.
		if row.SNIC.P99us > snicOverloadP99us && row.HAL.P99us > row.SNIC.P99us {
			t.Errorf("%s: HAL p99 %.0f should undercut saturated SNIC %.0f", name, row.HAL.P99us, row.SNIC.P99us)
		}
		// HAL power below host power (host sleeps at low rates).
		if row.HAL.PowerW >= row.Host.PowerW {
			t.Errorf("%s: HAL power %.0f should undercut host %.0f", name, row.HAL.PowerW, row.Host.PowerW)
		}
	}
	// Headline aggregates: positive EE gain and a p99 cut vs SNIC-only for
	// every workload. Summarize averages the cut over the configurations
	// that overloaded the SNIC, so a workload must have some.
	for _, s := range r.Summarize() {
		if s.EEGainVsHost < 0.1 {
			t.Errorf("%v: EE gain %.1f%%, paper ≈24-35%%", s.Workload, s.EEGainVsHost*100)
		}
		if s.SNICOverloaded == 0 {
			t.Errorf("%v: no configuration overloads the SNIC", s.Workload)
		}
		if s.P99CutVsSNIC < 0.2 {
			t.Errorf("%v: p99 cut %.0f%%, paper 64-94%%", s.Workload, s.P99CutVsSNIC*100)
		}
	}
	if !strings.Contains(r.Table().Render(), "NAT+REM") {
		t.Error("pipelines missing from table")
	}
	if !strings.Contains(r.SummaryTable().Render(), "EE gain") {
		t.Error("summary table broken")
	}
}

// TestTab5SummarizeOverloadedOnly pins Summarize's p99 cut to the
// configurations whose SNIC-only p99 exceeds snicOverloadP99us, on
// hand-built rows.
func TestTab5SummarizeOverloadedOnly(t *testing.T) {
	cell := func(p99 float64) Tab5Cell { return Tab5Cell{MaxGbps: 40, AvgGbps: 1, P99us: p99, PowerW: 200} }
	r := Tab5Result{Rows: []Tab5Row{
		{Workload: trace.Web, Config: "a", SNIC: cell(1000), Host: cell(10), HAL: cell(100)},
		{Workload: trace.Web, Config: "b", SNIC: cell(2000), Host: cell(10), HAL: cell(1000)},
		{Workload: trace.Web, Config: "c", SNIC: cell(10), Host: cell(10), HAL: cell(12)},
		{Workload: trace.Cache, Config: "a", SNIC: cell(snicOverloadP99us), Host: cell(10), HAL: cell(5)},
	}}
	sum := r.Summarize()
	if len(sum) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sum))
	}
	web, cache := sum[0], sum[1]
	if web.Configs != 3 || web.SNICOverloaded != 2 || math.Abs(web.P99CutVsSNIC-0.7) > 1e-12 {
		t.Errorf("web: %d/%d overloaded, cut %v; want 2/3, 0.7", web.SNICOverloaded, web.Configs, web.P99CutVsSNIC)
	}
	if cache.Configs != 1 || cache.SNICOverloaded != 0 || cache.P99CutVsSNIC != 0 {
		t.Errorf("cache: %d/%d overloaded, cut %v; want 0/1, 0", cache.SNICOverloaded, cache.Configs, cache.P99CutVsSNIC)
	}
	out := r.SummaryTable().Render()
	for _, want := range []string{"70.0% (2/3)", "- (0/1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table lacks %q:\n%s", want, out)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	heavy(t)
	r, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 10 {
		t.Fatalf("points = %d", len(r.Points))
	}
	worstTP := 1.0
	for _, p := range r.Points {
		if p.TPRatio < worstTP {
			worstTP = p.TPRatio
		}
		if p.TPRatio > 1.15 {
			t.Errorf("%s: BF-3 should not beat SPR (ratio %.2f)", p.Name, p.TPRatio)
		}
	}
	// "up to 80% lower throughput": the worst ratio dips to ≈0.2.
	if worstTP > 0.4 {
		t.Errorf("worst BF3/SPR TP ratio %.2f, want ≤0.4", worstTP)
	}
	if !strings.Contains(r.Table().Render(), "SPR") {
		t.Error("fig10 table broken")
	}
}

func TestAblationLBP(t *testing.T) {
	heavy(t)
	r, err := AblationLBP(quick())
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]AblationPoint{}
	for _, p := range r.Points {
		by[p.Name] = p
	}
	dyn := by["dynamic adaptive"]
	oracle := by["frozen @ 42 (oracle)"]
	low := by["frozen @ 20 (low)"]
	high := by["frozen @ 80 (high)"]
	// Dynamic should roughly match the profiled oracle on throughput.
	if dyn.TPGbps < oracle.TPGbps*0.95 {
		t.Errorf("dynamic TP %.1f far below oracle %.1f", dyn.TPGbps, oracle.TPGbps)
	}
	// Frozen-high overloads the SNIC: drops and/or tail blow-up.
	if high.DropFrac < 0.05 && high.P99us < 5*dyn.P99us {
		t.Errorf("frozen@80 should hurt: drops %.2f p99 %.0f vs dynamic %.0f",
			high.DropFrac, high.P99us, dyn.P99us)
	}
	// Frozen-low pushes load to the host: lower efficiency than dynamic.
	if low.EffGbpsW >= dyn.EffGbpsW {
		t.Errorf("frozen@20 EE %.4f should trail dynamic %.4f", low.EffGbpsW, dyn.EffGbpsW)
	}
	if len(r.Table().Rows) != 5 {
		t.Fatal("table rows")
	}
}

func TestAblationWatermarks(t *testing.T) {
	heavy(t)
	r, err := AblationWatermarks(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatal("points")
	}
	// Deeper watermarks must not reduce p99.
	if r.Points[0].P99us > r.Points[3].P99us {
		t.Errorf("p99 should grow with watermarks: %.1f vs %.1f",
			r.Points[0].P99us, r.Points[3].P99us)
	}
}

func TestAblationPacketSize(t *testing.T) {
	heavy(t)
	r, err := AblationPacketSize(quick())
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]AblationPoint{}
	for _, p := range r.Points {
		by[p.Name] = p
	}
	// SNIC collapses harder at 64B than at MTU.
	if by["SNIC@64B"].TPGbps >= by["SNIC@MTU"].TPGbps*0.8 {
		t.Errorf("SNIC 64B TP %.1f should collapse vs MTU %.1f",
			by["SNIC@64B"].TPGbps, by["SNIC@MTU"].TPGbps)
	}
	// Host degrades less than the SNIC in relative terms.
	snicRatio := by["SNIC@64B"].TPGbps / by["SNIC@MTU"].TPGbps
	hostRatio := by["Host@64B"].TPGbps / by["Host@MTU"].TPGbps
	if hostRatio <= snicRatio {
		t.Errorf("host small-packet ratio %.2f should beat SNIC %.2f", hostRatio, snicRatio)
	}
}

func TestAblationMonitorPeriod(t *testing.T) {
	heavy(t)
	r, err := AblationMonitorPeriod(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatal("points")
	}
	for _, p := range r.Points {
		if p.TPGbps <= 0 {
			t.Errorf("%s: no throughput", p.Name)
		}
	}
}

func TestDVFSEstimate(t *testing.T) {
	tb := DVFSEstimate()
	if len(tb.Rows) != 3 {
		t.Fatal("rows")
	}
	if !strings.Contains(tb.Render(), "saving") {
		t.Fatal("render")
	}
}

func TestValidateAllClaims(t *testing.T) {
	heavy(t)
	var ev Evidence
	var err error
	if ev.Fig9, err = fig9(); err != nil {
		t.Fatal(err)
	}
	if ev.Fig5, err = fig5(); err != nil {
		t.Fatal(err)
	}
	if ev.Table5, err = tab5(); err != nil {
		t.Fatal(err)
	}
	if ev.Compare, err = compare(); err != nil {
		t.Fatal(err)
	}
	r := Validate(ev)
	if len(r.Checks) != 10 {
		t.Fatalf("checks = %d, want 10", len(r.Checks))
	}
	for _, c := range r.Checks {
		if !c.Pass {
			t.Errorf("FAIL: %s (measured %s)", c.Claim, c.Measured)
		}
	}
	if !r.Passed() {
		t.Error("Passed() should reflect check status")
	}
	if !strings.Contains(r.Table().Render(), "PASS") {
		t.Error("table render broken")
	}
}

// TestValidateHandBuiltEvidence scores claims on evidence built by hand:
// every point in range except a SNIC NAT saturation of 60 Gbps, and no
// Fig. 5 bar for SLB on 4 cores.
func TestValidateHandBuiltEvidence(t *testing.T) {
	nat := SweepResult{Fn: nf.NAT, Rates: []float64{20, 80, 100}, Points: map[server.Mode][]SweepPoint{
		server.SNICOnly: {{RateGbps: 20, P50us: 3}, {RateGbps: 80, TPGbps: 60, P99us: 5000}, {RateGbps: 100}},
		server.HostOnly: {{RateGbps: 20}, {RateGbps: 80, P99us: 20, PowerW: 300}, {RateGbps: 100, TPGbps: 90}},
		server.HAL:      {{RateGbps: 20, P50us: 4}, {RateGbps: 80, TPGbps: 80, P99us: 30, PowerW: 250}, {RateGbps: 100}},
	}}
	ev := Evidence{
		Fig9: []SweepResult{nat},
		Fig5: SLBResult{Points: []SLBPoint{{Cores: 1, FwdTh: 20, DropFrac: 0.6}}},
		Compare: CompareResult{Points: []ComparePoint{
			{Name: "REM-tea", SNIC: PlatformPoint{MaxGbps: 10}, Host: PlatformPoint{MaxGbps: 20}},
			{Name: "REM-lite", SNIC: PlatformPoint{MaxGbps: 40}, Host: PlatformPoint{MaxGbps: 2}},
		}},
	}
	for _, w := range trace.Workloads {
		ev.Table5.Rows = append(ev.Table5.Rows, Tab5Row{Workload: w, Config: "REM",
			Host: Tab5Cell{AvgGbps: 10, PowerW: 200}, HAL: Tab5Cell{AvgGbps: 10, PowerW: 150}})
	}
	r := Validate(ev)
	if len(r.Checks) != 10 {
		t.Fatalf("checks = %d, want 10", len(r.Checks))
	}
	failed := map[int]string{}
	for i, c := range r.Checks {
		if !c.Pass {
			failed[i+1] = c.Measured
		}
	}
	want := map[int]string{1: "60.0 Gbps", 8: "missing"}
	if !maps.Equal(failed, want) {
		t.Errorf("failing claims (number: measured) = %v, want %v", failed, want)
	}
	if r.Passed() {
		t.Error("Passed() = true with failing claims")
	}
	tbl := r.Table().Render()
	if strings.Count(tbl, "FAIL") != 2 || strings.Count(tbl, "PASS") != 8 {
		t.Errorf("scoreboard should show 2 FAIL and 8 PASS rows:\n%s", tbl)
	}

	// No evidence at all fails every claim without panicking.
	for _, c := range Validate(Evidence{}).Checks {
		if c.Pass || c.Measured != "missing" {
			t.Errorf("%s: %+v on empty evidence, want a missing FAIL", c.Claim, c)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1,5", `say "hi"`}, {"2", "plain"}},
	}
	got := tb.CSV()
	want := "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n2,plain\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestAblationFunctionMix(t *testing.T) {
	heavy(t)
	r, err := AblationFunctionMix(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	dyn := r.Points[0]
	frozenHigh := r.Points[1] // @42, stale after the shift
	if frozenHigh.DropFrac < 0.005 && frozenHigh.P99us < 3*dyn.P99us {
		t.Errorf("stale frozen threshold should hurt: drops %.3f p99 %.0f vs dyn %.0f",
			frozenHigh.DropFrac, frozenHigh.P99us, dyn.P99us)
	}
}

func TestFaultsShapes(t *testing.T) {
	heavy(t)
	r, err := Faults(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(r.Points))
	}
	for _, p := range r.Points {
		name := p.Name + "/" + p.Fn
		if !p.LedgerOK() {
			t.Errorf("%s: ledger leak: sent %d, completed %d, dropped %d, in flight %d",
				name, p.Sent, p.Completed, p.Dropped, p.InFlight)
		}
		if p.BeforeGbps <= 0 || p.AfterGbps <= 0 {
			t.Errorf("%s: zero throughput", name)
		}
		// Acceptance: post-fault throughput recovers to ≥95% of pre-fault.
		if p.AfterGbps < p.BeforeGbps*0.95 {
			t.Errorf("%s: after %.1f Gbps < 95%% of before %.1f", name, p.AfterGbps, p.BeforeGbps)
		}
		// Capacity-loss scenarios must fail over within the LBP bound.
		if p.CoreCrashes > 0 && p.FailoverTicks >= 0 && p.FailoverTicks > 2 {
			t.Errorf("%s: failover took %d LBP ticks, bound 2", name, p.FailoverTicks)
		}
	}
	tbl := r.Table().Render()
	for _, want := range []string{"core-crash", "telemetry blackout", "accel degrade", "exact"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("faults table missing %q", want)
		}
	}
}
