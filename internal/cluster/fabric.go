package cluster

import (
	"halsim/internal/rng"
	"halsim/internal/server"
	"halsim/internal/sim"
)

// serScale converts wire bytes into serialization nanoseconds at a link
// rate. The reference formula is sim.Time(float64(wireLen)*8/gbps) — one
// float divide per hop, on the ingress's hottest path. At construction the
// scale searches for a fixed-point multiplier that reproduces the
// reference EXACTLY for every frame length up to serVerifyMax (far beyond
// any MTU), so the hot path becomes one integer multiply-and-shift while
// goldens stay byte-identical by exhaustive proof, not hope. When no
// multiplier survives verification (or a frame exceeds the verified
// range), the scale falls back to the reference formula — still correct,
// just not integer-fast.
type serScale struct {
	gbps  float64
	mul   uint64
	exact bool
}

const (
	serShift     = 32
	serVerifyMax = 1 << 16 // bytes; MTU+headers is ~1.5K, jumbo ~9K
)

func newSerScale(gbps float64) serScale {
	s := serScale{gbps: gbps}
	base := uint64(float64(8) * float64(uint64(1)<<serShift) / gbps)
	for _, mul := range []uint64{base, base + 1} {
		ok := true
		for w := 0; w <= serVerifyMax; w++ {
			want := sim.Time(float64(w) * 8 / gbps)
			if sim.Time((uint64(w)*mul)>>serShift) != want {
				ok = false
				break
			}
		}
		if ok {
			s.mul, s.exact = mul, true
			break
		}
	}
	return s
}

// ns is the serialization delay of wireLen bytes at the link rate.
func (s serScale) ns(wireLen int) sim.Time {
	if s.exact && wireLen >= 0 && wireLen <= serVerifyMax {
		return sim.Time((uint64(wireLen) * s.mul) >> serShift)
	}
	return sim.Time(float64(wireLen) * 8 / s.gbps)
}

// fabric models the cluster network. Flat (pods <= 1) it is the original
// star: one full-duplex link per server, each direction with its own
// serialization point (freeAt) at linkGbps, plus a fixed one-way
// wire+switch latency — byte-identical arithmetic to the pre-pod fabric.
//
// With pods >= 2 it is a two-tier pod/ToR/spine topology: servers are
// partitioned contiguously into pods, each pod's ToR reaches the
// spine/ingress over one full-duplex uplink whose bandwidth is the pod's
// aggregate server bandwidth divided by the oversubscription ratio. A
// frame then crosses TWO serialization points per direction — the pod
// uplink (at uplinkGbps) and the server link (at linkGbps) — plus the
// spine wire and the ToR wire. Every cross-LP message still arrives at
// least one declared wire in the future: wireNS+spineWireNS downstream,
// wireNS upstream (the pod uplink's upstream serialization runs as an
// ingress-local event, so the declared group->ingress lookahead stays the
// ToR wire alone).
//
// Ownership: downFree and podDownFree are ingress-owned (dispatch),
// upFree[i] is owned by server i's LP, and podUpFree is ingress-owned —
// pods may span several server-group LPs, so upstream pod serialization
// is applied at the ingress (see crun.podUp), never from a server LP.
type fabric struct {
	wireNS      sim.Time
	spineWireNS sim.Time
	linkSer     serScale
	upSer       serScale // pod uplink; zero value unused when pods <= 1
	pods        int
	podOf       []int
	downFree    []sim.Time // ingress -> server i serialization point
	upFree      []sim.Time // server i -> ingress/ToR serialization point
	podDownFree []sim.Time // spine -> pod p uplink serialization point
	podUpFree   []sim.Time // pod p -> spine uplink serialization point
}

// podOfServer maps server i of n onto one of p contiguous pods (the same
// arithmetic groupOf uses for LP partitioning, so pod boundaries and group
// boundaries nest when their counts divide).
func podOfServer(i, n, p int) int { return i * p / n }

// newFabric builds the fabric of a validated ClusterConfig.
func newFabric(cc server.ClusterConfig) *fabric {
	n := cc.Servers
	f := &fabric{
		wireNS:   cc.WireNS,
		linkSer:  newSerScale(cc.LinkGbps),
		pods:     cc.Pods,
		downFree: make([]sim.Time, n),
		upFree:   make([]sim.Time, n),
	}
	if cc.Pods > 1 {
		f.spineWireNS = cc.SpineWireNS
		uplinkGbps := float64(n) * cc.LinkGbps / (float64(cc.Pods) * cc.Oversub)
		f.upSer = newSerScale(uplinkGbps)
		f.podOf = make([]int, n)
		for i := 0; i < n; i++ {
			f.podOf[i] = podOfServer(i, n, cc.Pods)
		}
		f.podDownFree = make([]sim.Time, cc.Pods)
		f.podUpFree = make([]sim.Time, cc.Pods)
	}
	return f
}

// down sends a request toward server i at instant at; returns the arrival
// instant at the server's NIC. Ingress-owned state. With pods the frame
// first serializes onto the pod's downstream uplink and crosses the spine
// wire, then takes the server link exactly as the flat star would.
func (f *fabric) down(i int, at sim.Time, wireLen int) sim.Time {
	dep := at
	if f.pods > 1 {
		p := f.podOf[i]
		if f.podDownFree[p] > dep {
			dep = f.podDownFree[p]
		}
		fin := dep + f.upSer.ns(wireLen)
		f.podDownFree[p] = fin
		dep = fin + f.spineWireNS
	}
	if f.downFree[i] > dep {
		dep = f.downFree[i]
	}
	fin := dep + f.linkSer.ns(wireLen)
	f.downFree[i] = fin
	return fin + f.wireNS
}

// up sends a response from server i at instant at; returns the arrival
// instant at the ingress (flat) or at the pod ToR's uplink queue (pods —
// the caller then finishes the trip with podUp at the ingress).
// Server-LP-owned state: only server i's engine touches upFree[i], and
// servers sharing a group engine touch disjoint slots single-threadedly.
func (f *fabric) up(i int, at sim.Time, wireLen int) sim.Time {
	dep := at
	if f.upFree[i] > dep {
		dep = f.upFree[i]
	}
	fin := dep + f.linkSer.ns(wireLen)
	f.upFree[i] = fin
	return fin + f.wireNS
}

// podUp serializes a response from server srv's pod onto the upstream
// uplink at instant at (its ToR arrival) and returns the ingress arrival.
// Ingress-owned state: pods span server-group LPs, so this runs as an
// ingress-local event, where the merged event order is the serial order.
func (f *fabric) podUp(srv int, at sim.Time, wireLen int) sim.Time {
	p := f.podOf[srv]
	dep := at
	if f.podUpFree[p] > dep {
		dep = f.podUpFree[p]
	}
	fin := dep + f.upSer.ns(wireLen)
	f.podUpFree[p] = fin
	return fin + f.spineWireNS
}

// dispatcher picks a destination server per request. Ingress-owned, so
// every policy sees the same deterministic call sequence in serial and
// parallel runs.
type dispatcher interface {
	// pick chooses a server given the per-server in-flight counts.
	pick(outstanding []int64) int
	// counted tells the policy that outstanding[i] changed; the ingress
	// calls it after every dispatch and every delivery.
	counted(outstanding []int64, i int)
}

func newDispatcher(policy string, n int, seed int64) dispatcher {
	switch policy {
	case "p2c":
		return &p2c{n: n, rng: rng.Stream(seed, rng.Dispatch, 0)}
	case "least-conn":
		return newLeastConn(n)
	default:
		return &roundRobin{n: n}
	}
}

// roundRobin cycles through the fleet.
type roundRobin struct{ n, next int }

func (*roundRobin) counted([]int64, int) {}

func (d *roundRobin) pick([]int64) int {
	i := d.next
	d.next++
	if d.next == d.n {
		d.next = 0
	}
	return i
}

// p2c is power-of-two-choices over the ingress's in-flight counts: draw
// two servers, send to the one with fewer outstanding requests (first
// draw wins ties, keeping the policy deterministic).
type p2c struct {
	n   int
	rng rng.Rand
}

func (*p2c) counted([]int64, int) {}

func (d *p2c) pick(outstanding []int64) int {
	a := d.rng.Intn(d.n)
	b := d.rng.Intn(d.n)
	if outstanding[b] < outstanding[a] {
		return b
	}
	return a
}

// leastConn is full least-connections over the ingress's in-flight
// counts: argmin over all servers, lowest index winning ties — a pure
// deterministic function of the counts, no RNG stream. A tournament tree
// keeps the argmin: win[1] is the root, win[size+i] the leaf of server i
// (-1 past the fleet), and every internal node the winner of its two
// children's match, the lower count with the left (lower-index) side
// winning ties. A count change replays only the matches on its leaf's
// path to the root, so a pick costs O(1) and a change O(log N) where a
// scan of the fleet cost O(N) per request.
type leastConn struct {
	size int // leaves: the fleet size rounded up to a power of two
	win  []int32
}

func newLeastConn(n int) *leastConn {
	size := 1
	for size < n {
		size <<= 1
	}
	d := &leastConn{size: size, win: make([]int32, 2*size)}
	for i := 0; i < size; i++ {
		d.win[size+i] = -1
		if i < n {
			d.win[size+i] = int32(i)
		}
	}
	// Every count starts at zero, so each match goes to its left side.
	for k := size - 1; k >= 1; k-- {
		d.win[k] = d.win[2*k]
	}
	return d
}

func (d *leastConn) pick([]int64) int { return int(d.win[1]) }

func (d *leastConn) counted(outstanding []int64, i int) {
	for k := (d.size + i) >> 1; k >= 1; k >>= 1 {
		a, b := d.win[2*k], d.win[2*k+1]
		if b >= 0 && outstanding[b] < outstanding[a] {
			a = b
		}
		d.win[k] = a
	}
}
