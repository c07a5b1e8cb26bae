// Package coherence implements a directory-based MESI cache-coherence
// simulator over the shared state region of stateful network functions.
//
// The paper's CXL-SNIC (§V-C) is emulated with a dual-socket NUMA server:
// the CXL.cache protocol is UPI-derived, so coherent sharing between the
// SNIC processor and the host processor behaves like sharing between two
// sockets. This package models exactly that: two (or more) caching agents,
// a directory tracking each state cache line, and the four access outcomes
// that differ in cost — local hit, memory fetch, remote cache-to-cache
// transfer, and write-induced invalidation.
package coherence

import (
	"fmt"
	"math/bits"
)

// NodeID identifies a caching agent. In the HAL setup node 0 is the host
// processor and node 1 the (CXL-)SNIC processor.
type NodeID int

// MaxNodes bounds the sharer bitmap.
const MaxNodes = 16

// Outcome classifies one access by its coherence cost.
type Outcome int

// Access outcomes, cheapest first.
const (
	// LocalHit: the line is already valid in the requesting node's cache
	// with sufficient permission.
	LocalHit Outcome = iota
	// MemoryFetch: no cache holds the line; it is filled from memory.
	MemoryFetch
	// RemoteFetch: another cache owns or shares the line; data crosses
	// the coherent interconnect (UPI/CXL).
	RemoteFetch
	// RemoteInvalidate: a write had to invalidate remote copies before
	// proceeding (possibly also fetching the data remotely).
	RemoteInvalidate
)

func (o Outcome) String() string {
	switch o {
	case LocalHit:
		return "local-hit"
	case MemoryFetch:
		return "memory-fetch"
	case RemoteFetch:
		return "remote-fetch"
	case RemoteInvalidate:
		return "remote-invalidate"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// lineState is the directory entry for one cache line.
type lineState struct {
	// owner is the node holding the line Exclusive/Modified, or -1.
	owner int8
	// dirty marks Modified (vs Exclusive) ownership.
	dirty bool
	// sharers is a bitmap of nodes holding the line Shared.
	sharers uint16
}

// Stats aggregates per-node access outcomes.
type Stats struct {
	Accesses      uint64
	LocalHits     uint64
	MemoryFetches uint64
	RemoteFetches uint64
	Invalidations uint64
	Writebacks    uint64
}

// Directory is the home agent: it tracks every touched line and serializes
// coherence decisions. The zero value is unusable; call NewDirectory.
type Directory struct {
	nodes int
	lines map[uint64]*lineState
	stats []Stats
}

// NewDirectory creates a directory for n caching agents.
func NewDirectory(n int) *Directory {
	if n < 1 || n > MaxNodes {
		panic(fmt.Sprintf("coherence: node count %d out of [1,%d]", n, MaxNodes))
	}
	return &Directory{nodes: n, lines: make(map[uint64]*lineState)}
}

// Nodes returns the agent count.
func (d *Directory) Nodes() int { return d.nodes }

// Stats returns the accumulated statistics for node.
func (d *Directory) Stats(node NodeID) Stats {
	d.ensureStats()
	return d.stats[node]
}

// TotalStats sums statistics across nodes.
func (d *Directory) TotalStats() Stats {
	d.ensureStats()
	var t Stats
	for _, s := range d.stats {
		t.Accesses += s.Accesses
		t.LocalHits += s.LocalHits
		t.MemoryFetches += s.MemoryFetches
		t.RemoteFetches += s.RemoteFetches
		t.Invalidations += s.Invalidations
		t.Writebacks += s.Writebacks
	}
	return t
}

func (d *Directory) ensureStats() {
	if d.stats == nil {
		d.stats = make([]Stats, d.nodes)
	}
}

func (d *Directory) line(addr uint64) *lineState {
	l, ok := d.lines[addr]
	if !ok {
		l = &lineState{owner: -1}
		d.lines[addr] = l
	}
	return l
}

func (d *Directory) checkNode(node NodeID) {
	if int(node) < 0 || int(node) >= d.nodes {
		panic(fmt.Sprintf("coherence: node %d out of range [0,%d)", node, d.nodes))
	}
}

// Read performs a load by node on line addr and returns its outcome.
func (d *Directory) Read(node NodeID, addr uint64) Outcome {
	d.checkNode(node)
	d.ensureStats()
	s := &d.stats[node]
	s.Accesses++
	l := d.line(addr)
	bit := uint16(1) << uint(node)

	switch {
	case l.owner == int8(node):
		s.LocalHits++
		return LocalHit
	case l.sharers&bit != 0:
		s.LocalHits++
		return LocalHit
	case l.owner >= 0:
		// Remote owner: downgrade M/E→S, forward data. A dirty line is
		// written back as part of the downgrade.
		if l.dirty {
			s.Writebacks++
		}
		l.sharers |= uint16(1)<<uint(l.owner) | bit
		l.owner = -1
		l.dirty = false
		s.RemoteFetches++
		return RemoteFetch
	case l.sharers != 0:
		// Shared elsewhere: data can come from a peer cache.
		l.sharers |= bit
		s.RemoteFetches++
		return RemoteFetch
	default:
		// Cold: fill from memory with Exclusive ownership (the E in
		// MESI — silent upgrade on a later write).
		l.owner = int8(node)
		l.dirty = false
		s.MemoryFetches++
		return MemoryFetch
	}
}

// Write performs a store by node on line addr and returns its outcome.
func (d *Directory) Write(node NodeID, addr uint64) Outcome {
	d.checkNode(node)
	d.ensureStats()
	s := &d.stats[node]
	s.Accesses++
	l := d.line(addr)
	bit := uint16(1) << uint(node)

	switch {
	case l.owner == int8(node):
		// E→M silent upgrade or M hit.
		l.dirty = true
		s.LocalHits++
		return LocalHit
	case l.owner >= 0:
		// Another node owns it: invalidate-and-fetch.
		if l.dirty {
			s.Writebacks++
		}
		s.Invalidations++
		l.owner = int8(node)
		l.dirty = true
		l.sharers = 0
		return RemoteInvalidate
	case l.sharers != 0:
		others := l.sharers &^ bit
		l.owner = int8(node)
		l.dirty = true
		l.sharers = 0
		if others != 0 {
			s.Invalidations += uint64(bits.OnesCount16(others))
			return RemoteInvalidate
		}
		// Only this node shared it: S→M upgrade still posts to the
		// directory but moves no data; treat as local-class.
		s.LocalHits++
		return LocalHit
	default:
		l.owner = int8(node)
		l.dirty = true
		s.MemoryFetches++
		return MemoryFetch
	}
}

// holders returns how many nodes hold addr in any valid state (testing aid
// and invariant source).
func (d *Directory) holders(addr uint64) int {
	l, ok := d.lines[addr]
	if !ok {
		return 0
	}
	n := bits.OnesCount16(l.sharers)
	if l.owner >= 0 {
		n++
	}
	return n
}

// CheckInvariants validates the directory's single-writer/multi-reader
// discipline for every line, returning a descriptive error-like string
// ("" when clean). Exercised by property tests.
func (d *Directory) CheckInvariants() string {
	for addr, l := range d.lines {
		if l.owner >= 0 && l.sharers != 0 {
			return fmt.Sprintf("line %#x: owner %d coexists with sharers %#x", addr, l.owner, l.sharers)
		}
		if l.owner >= int8(d.nodes) {
			return fmt.Sprintf("line %#x: owner %d out of range", addr, l.owner)
		}
		if l.sharers>>uint(d.nodes) != 0 {
			return fmt.Sprintf("line %#x: sharer bitmap %#x exceeds node count", addr, l.sharers)
		}
		if l.dirty && l.owner < 0 {
			return fmt.Sprintf("line %#x: dirty without owner", addr)
		}
	}
	return ""
}

// Lines returns how many distinct lines the directory tracks.
func (d *Directory) Lines() int { return len(d.lines) }
