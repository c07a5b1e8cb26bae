// Package cxl models the interconnect between the SNIC processor and the
// host processor as it affects stateful functions (§V-C): a CXL-attached
// SNIC provides hardware-coherent shared memory with UPI-class latencies,
// while a PCIe-attached SNIC does not — cooperative stateful processing
// over PCIe would need software coherence at prohibitive cost, which is the
// paper's argument for CXL-SNIC.
package cxl

import (
	"fmt"

	"halsim/internal/coherence"
	"halsim/internal/sim"
)

// FabricKind selects the SNIC attachment. The zero value, NoFabric, gives
// a stateful function no shared region: it runs "like a stateless one",
// the paper's measurement methodology for Table V.
type FabricKind int

// Attachment kinds.
const (
	// NoFabric models no shared state at all.
	NoFabric FabricKind = iota
	// PCIe is today's BlueField-2 attachment: no cache coherence.
	PCIe
	// CXL is the emulated CXL Type-2 attachment (UPI-class coherence).
	CXL
)

func (k FabricKind) String() string {
	switch k {
	case NoFabric:
		return "none"
	case PCIe:
		return "pcie"
	case CXL:
		return "cxl"
	default:
		return fmt.Sprintf("fabric(%d)", int(k))
	}
}

// Valid reports whether k is one of the attachment kinds above.
func (k FabricKind) Valid() bool { return k >= NoFabric && k <= CXL }

// SupportsCooperativeState reports whether two agents may share mutable
// function state through this attachment. Only CXL does (§V-C).
func (k FabricKind) SupportsCooperativeState() bool { return k == CXL }

// CostModel maps coherence outcomes to latencies.
type CostModel struct {
	LocalHitNS     sim.Time
	MemoryNS       sim.Time
	RemoteNS       sim.Time // cache-to-cache across the fabric
	InvalidateNS   sim.Time // write-invalidate round trip
	SoftwareSyncNS sim.Time // PCIe fallback: software coherence round trip
}

// UPICosts returns the UPI/CXL-class cost model used by the emulation: a
// socket-to-socket hop is ~0.5 µs (§III-A); local cache hits are in the
// nanoseconds; memory ~90 ns.
func UPICosts() CostModel {
	return CostModel{
		LocalHitNS:     4 * sim.Nanosecond,
		MemoryNS:       90 * sim.Nanosecond,
		RemoteNS:       500 * sim.Nanosecond,
		InvalidateNS:   600 * sim.Nanosecond,
		SoftwareSyncNS: 5 * sim.Microsecond,
	}
}

// Fabric couples a coherence directory with an attachment kind and a cost
// model, and exposes the one question the server simulation asks: what does
// this state access cost, and is it even allowed?
type Fabric struct {
	Kind  FabricKind
	Costs CostModel
	dir   *coherence.Directory
}

// NewFabric builds a fabric of the given kind for the two caching agents
// of one server: the host processor (node 0) and the SNIC processor
// (node 1).
func NewFabric(kind FabricKind) *Fabric {
	return &Fabric{Kind: kind, Costs: UPICosts(), dir: coherence.NewDirectory(2)}
}

// Directory exposes the underlying coherence directory (stats, tests).
func (f *Fabric) Directory() *coherence.Directory { return f.dir }

// outcomeCost maps a coherence outcome to time.
func (f *Fabric) outcomeCost(o coherence.Outcome) sim.Time {
	switch o {
	case coherence.LocalHit:
		return f.Costs.LocalHitNS
	case coherence.MemoryFetch:
		return f.Costs.MemoryNS
	case coherence.RemoteFetch:
		return f.Costs.RemoteNS
	case coherence.RemoteInvalidate:
		return f.Costs.InvalidateNS
	default:
		panic(fmt.Sprintf("cxl: unknown outcome %v", o))
	}
}

// Access charges one state-line access by node. Write selects store vs
// load. On a PCIe fabric every access that could race with the other agent
// instead pays the software-sync cost, modeling the
// message-passing/locking a non-coherent design would need.
func (f *Fabric) Access(node coherence.NodeID, line uint64, write bool) sim.Time {
	if f.Kind == PCIe {
		// No hardware coherence: the directory still records the access
		// pattern (so experiments can report how much sharing PCIe
		// would have had to synchronize), but the cost is software.
		var o coherence.Outcome
		if write {
			o = f.dir.Write(node, line)
		} else {
			o = f.dir.Read(node, line)
		}
		if o == coherence.LocalHit || o == coherence.MemoryFetch {
			return f.Costs.MemoryNS
		}
		return f.Costs.SoftwareSyncNS
	}
	if write {
		return f.outcomeCost(f.dir.Write(node, line))
	}
	return f.outcomeCost(f.dir.Read(node, line))
}

// AccessOverlapped charges a batch of line accesses issued with full
// memory-level parallelism: all misses are outstanding simultaneously, so
// the batch costs as much as its single most expensive access. Modern
// cores sustain 10+ outstanding misses, and a network function issues its
// state loads up front — this is why the paper measures only 0.3–0.4%
// throughput loss from coherence (§VII-B). The directory still records
// every access for the sharing statistics.
func (f *Fabric) AccessOverlapped(node coherence.NodeID, lines []uint64, write bool) sim.Time {
	var worst sim.Time
	for _, l := range lines {
		if c := f.Access(node, l, write); c > worst {
			worst = c
		}
	}
	return worst
}
