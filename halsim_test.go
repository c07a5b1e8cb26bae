package halsim_test

import (
	"testing"

	"halsim"
)

func TestFacadeQuickRun(t *testing.T) {
	res, err := halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT},
		halsim.RunConfig{Duration: 50 * halsim.Millisecond, RateGbps: 40},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgGbps < 35 {
		t.Fatalf("delivered %.1f Gbps at 40 offered", res.AvgGbps)
	}
	if res.Mode != halsim.HAL || res.Fn != halsim.NAT {
		t.Fatal("result identity wrong")
	}
}

func TestFacadeParseFunction(t *testing.T) {
	fn, err := halsim.ParseFunction("REM")
	if err != nil || fn != halsim.REM {
		t.Fatalf("ParseFunction: %v %v", fn, err)
	}
	if _, err := halsim.ParseFunction("nope"); err == nil {
		t.Fatal("bad name should fail")
	}
	if len(halsim.AllFunctions) != 10 {
		t.Fatalf("AllFunctions = %d", len(halsim.AllFunctions))
	}
}

func TestFacadePlatforms(t *testing.T) {
	for _, pl := range []*halsim.Platform{
		halsim.BlueField2(), halsim.HostXeon(), halsim.BlueField3(), halsim.SapphireRapids(),
	} {
		if pl.Name == "" || pl.LineGbps == 0 {
			t.Errorf("platform %+v incomplete", pl)
		}
	}
}

func TestFacadeFabric(t *testing.T) {
	if halsim.PCIe.SupportsCooperativeState() {
		t.Fatal("PCIe fabric must not support cooperative state")
	}
	if !halsim.CXL.SupportsCooperativeState() {
		t.Fatal("CXL fabric must support cooperative state")
	}
	_, err := halsim.Run(halsim.Config{Mode: halsim.HAL, Fn: halsim.Count, Fabric: halsim.PCIe},
		halsim.RunConfig{Duration: halsim.Millisecond, RateGbps: 20})
	if err == nil {
		t.Fatal("stateful HAL over PCIe must be rejected (§V-C)")
	}
}

func TestFacadeFaultPlan(t *testing.T) {
	from, to := 20*halsim.Millisecond, 30*halsim.Millisecond
	plan := halsim.NewFaultPlan(1).CrashSNICCores(from, to, 2)
	res, err := halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 1, Faults: plan},
		halsim.RunConfig{
			Duration:   50 * halsim.Millisecond,
			RateGbps:   40,
			PhaseMarks: []halsim.Time{from, to},
			Drain:      true,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreCrashes != 2 || res.FaultEvents != 4 {
		t.Fatalf("crashes = %d, events = %d", res.CoreCrashes, res.FaultEvents)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	if res.SentAll != res.CompletedAll+res.DroppedAll || res.InFlightEnd != 0 {
		t.Fatalf("ledger leak: %d sent, %d completed, %d dropped, %d in flight",
			res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd)
	}
}

func TestFacadeParseWorkload(t *testing.T) {
	w, err := halsim.ParseWorkload("hadoop")
	if err != nil || w != halsim.Hadoop {
		t.Fatalf("ParseWorkload: %v %v", w, err)
	}
	if _, err := halsim.ParseWorkload("nope"); err == nil {
		t.Fatal("bad workload name should fail")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(halsim.Workloads) != 3 {
		t.Fatal("expected three workloads")
	}
	w := halsim.Web
	res, err := halsim.Run(
		halsim.Config{Mode: halsim.SNICOnly, Fn: halsim.Count},
		halsim.RunConfig{Duration: 100 * halsim.Millisecond, Workload: &w},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("trace run produced nothing")
	}
}
