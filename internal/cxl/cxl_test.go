package cxl

import (
	"testing"

	"halsim/internal/coherence"
	"halsim/internal/sim"
)

func TestFabricKinds(t *testing.T) {
	if NoFabric.String() != "none" || PCIe.String() != "pcie" || CXL.String() != "cxl" {
		t.Fatal("kind strings")
	}
	if PCIe.SupportsCooperativeState() {
		t.Fatal("PCIe must not support cooperative state")
	}
	if !CXL.SupportsCooperativeState() || NoFabric.SupportsCooperativeState() {
		t.Fatal("only CXL supports cooperative state")
	}
	if !NoFabric.Valid() || !CXL.Valid() || FabricKind(3).Valid() || FabricKind(-1).Valid() {
		t.Fatal("Valid must accept exactly the three kinds")
	}
}

func TestCXLAccessCosts(t *testing.T) {
	f := NewFabric(CXL)
	c := f.Costs
	// Cold read: memory.
	if got := f.Access(0, 1, false); got != c.MemoryNS {
		t.Fatalf("cold = %v", got)
	}
	// Warm read: local.
	if got := f.Access(0, 1, false); got != c.LocalHitNS {
		t.Fatalf("warm = %v", got)
	}
	// Cross read: remote.
	if got := f.Access(1, 1, false); got != c.RemoteNS {
		t.Fatalf("cross = %v", got)
	}
	// Cross write: invalidate.
	if got := f.Access(0, 1, true); got != c.InvalidateNS {
		t.Fatalf("inval = %v", got)
	}
}

func TestCostOrdering(t *testing.T) {
	c := UPICosts()
	if !(c.LocalHitNS < c.MemoryNS && c.MemoryNS < c.RemoteNS && c.RemoteNS <= c.InvalidateNS) {
		t.Fatalf("cost ordering broken: %+v", c)
	}
	if c.SoftwareSyncNS <= c.InvalidateNS {
		t.Fatal("software sync must dwarf hardware coherence")
	}
	if c.RemoteNS != sim.Time(500) {
		t.Fatalf("remote hop should match §III-A's ~0.5µs: %v", c.RemoteNS)
	}
}

func TestPCIeSharingPaysSoftwareSync(t *testing.T) {
	f := NewFabric(PCIe)
	f.Access(0, 7, true)         // node 0 establishes the line
	f.Access(0, 7, true)         // local again
	got := f.Access(1, 7, false) // cross-node: software sync on PCIe
	if got != f.Costs.SoftwareSyncNS {
		t.Fatalf("PCIe cross access = %v, want software sync %v", got, f.Costs.SoftwareSyncNS)
	}
	// Private access on PCIe is just memory-class.
	if got := f.Access(0, 99, false); got != f.Costs.MemoryNS {
		t.Fatalf("PCIe private = %v", got)
	}
}

func TestCXLBeatsPCIeForSharedState(t *testing.T) {
	// The §V-C argument in one property: an interleaved shared-state
	// workload costs far more over PCIe than over CXL.
	run := func(kind FabricKind) sim.Time {
		f := NewFabric(kind)
		var total sim.Time
		for i := 0; i < 1000; i++ {
			node := coherence.NodeID(i % 2)
			total += f.Access(node, uint64(i%8), i%3 == 0)
		}
		return total
	}
	pcie, cxl := run(PCIe), run(CXL)
	if cxl*2 >= pcie {
		t.Fatalf("CXL (%v) should be far cheaper than PCIe (%v) for shared state", cxl, pcie)
	}
}

func TestDirectoryStatsExposed(t *testing.T) {
	f := NewFabric(CXL)
	f.Access(0, 1, false)
	f.Access(1, 1, false)
	st := f.Directory().TotalStats()
	if st.Accesses != 2 || st.RemoteFetches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAccessOverlapped(t *testing.T) {
	f := NewFabric(CXL)
	// Establish three lines at node 1 so node 0's batch is all-remote.
	for _, l := range []uint64{1, 2, 3} {
		f.Access(1, l, true)
	}
	got := f.AccessOverlapped(0, []uint64{1, 2, 3}, true)
	if got != f.Costs.InvalidateNS {
		t.Fatalf("overlapped batch = %v, want one invalidate %v", got, f.Costs.InvalidateNS)
	}
	// All accesses were still recorded in the directory.
	if st := f.Directory().TotalStats(); st.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", st.Invalidations)
	}
	if f.AccessOverlapped(0, nil, false) != 0 {
		t.Fatal("empty batch should be free")
	}
}
