package cluster

import (
	"math/rand"
	"testing"

	"halsim/internal/server"
	"halsim/internal/sim"
)

// TestSerScaleMatchesFloatFormula proves the fixed-point serialization
// scale is not an approximation: for every verified frame length it must
// equal the float reference bit-for-bit, and past the verified range the
// fallback IS the reference. Rates cover the shipped defaults, the pod
// uplink arithmetic's fractional results, and awkward non-dyadic rates.
func TestSerScaleMatchesFloatFormula(t *testing.T) {
	rates := []float64{100, 25, 400, 12.5, 1, 3.3, 6.4, 1600, 1e6, 0.177}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		rates = append(rates, 0.5+rng.Float64()*800)
	}
	for _, gbps := range rates {
		s := newSerScale(gbps)
		for w := 0; w <= serVerifyMax; w++ {
			want := sim.Time(float64(w) * 8 / gbps)
			if got := s.ns(w); got != want {
				t.Fatalf("gbps=%v wireLen=%d: ns()=%v, want %v (exact=%v)", gbps, w, got, want, s.exact)
			}
		}
		for _, w := range []int{serVerifyMax + 1, 1 << 20} {
			want := sim.Time(float64(w) * 8 / gbps)
			if got := s.ns(w); got != want {
				t.Fatalf("gbps=%v wireLen=%d (beyond verified range): ns()=%v, want %v", gbps, w, got, want)
			}
		}
	}
}

// TestPodFabricLegacyPath: a pods<=1 fabric must reproduce the flat
// star's arithmetic exactly — same freeAt evolution, same arrivals.
func TestPodFabricLegacyPath(t *testing.T) {
	flat := newFabric(server.ClusterConfig{Servers: 4, WireNS: 2000, LinkGbps: 100, Pods: 1, Oversub: 1})
	if flat.podOf != nil || flat.podDownFree != nil {
		t.Fatal("flat fabric allocated pod state")
	}
	// Back-to-back frames on one link serialize: 128B at 100 Gbps is
	// 10.24ns -> 10ns truncated.
	a1 := flat.down(2, 100, 128)
	a2 := flat.down(2, 100, 128)
	if a1 != 100+10+2000 || a2 != 100+20+2000 {
		t.Fatalf("flat down arrivals %v, %v; want 2110, 2120", a1, a2)
	}
}

// TestPodFabricTwoTier covers the podded path: downstream crosses the pod
// uplink then the server link; upstream splits between the server-LP half
// (up) and the ingress half (podUp), and pod uplinks serialize frames
// from different servers of one pod against each other.
func TestPodFabricTwoTier(t *testing.T) {
	// 8 servers, 2 pods, oversub 2: uplink = 4*100/2 = 200 Gbps.
	f := newFabric(server.ClusterConfig{Servers: 8, WireNS: 1000, SpineWireNS: 3000, LinkGbps: 100, Pods: 2, Oversub: 2})
	for i, want := range []int{0, 0, 0, 0, 1, 1, 1, 1} {
		if f.podOf[i] != want {
			t.Fatalf("podOf[%d] = %d, want %d", i, f.podOf[i], want)
		}
	}
	// 128B: 5.12ns at 200G -> 5ns uplink, 10.24 -> 10ns server link.
	a := f.down(0, 100, 128)
	if a != 100+5+3000+10+1000 {
		t.Fatalf("podded down arrival %v, want 4115", a)
	}
	// Same pod, different server, same instant: the shared uplink pushes
	// the second frame out behind the first; the distinct server link
	// starts fresh.
	b := f.down(1, 100, 128)
	if b != 100+10+3000+10+1000 {
		t.Fatalf("second podded down arrival %v, want 4120", b)
	}
	// Other pod: its uplink is idle.
	c := f.down(4, 100, 128)
	if c != a {
		t.Fatalf("other-pod down arrival %v, want %v", c, a)
	}

	// Upstream: server link to the ToR...
	tor := f.up(0, 500, 128)
	if tor != 500+10+1000 {
		t.Fatalf("up ToR arrival %v, want 1510", tor)
	}
	// ...then the pod uplink at the ingress, serializing against a second
	// response from the same pod arriving at the same instant.
	d1 := f.podUp(0, tor, 128)
	d2 := f.podUp(3, tor, 128)
	if d1 != tor+5+3000 || d2 != tor+10+3000 {
		t.Fatalf("podUp arrivals %v, %v; want %v, %v", d1, d2, tor+5+3000, tor+10+3000)
	}
}

// TestLeastConnDispatch pins the policy: argmin over outstanding counts,
// lowest index on ties, no RNG stream consumed.
func TestLeastConnDispatch(t *testing.T) {
	cases := []struct {
		out  []int64
		want int
	}{
		{[]int64{0, 0, 0, 0}, 0},
		{[]int64{5, 2, 2, 9}, 1},
		{[]int64{3, 3, 1, 1}, 2},
		{[]int64{7, 6, 5, 4}, 3},
	}
	for _, c := range cases {
		d := newDispatcher("least-conn", 4, 99)
		for i := range c.out {
			d.counted(c.out, i)
		}
		if got := d.pick(c.out); got != c.want {
			t.Fatalf("least-conn pick(%v) = %d, want %d", c.out, got, c.want)
		}
	}
}

// scanArgmin is the linear least-connections scan the tournament tree
// replaces: argmin over the counts, lowest index winning ties.
func scanArgmin(outstanding []int64) int {
	best := 0
	for i := 1; i < len(outstanding); i++ {
		if outstanding[i] < outstanding[best] {
			best = i
		}
	}
	return best
}

// TestLeastConnTreeMatchesScan drives the tree with random ±1 count
// changes on fleets of every shape around the powers of two, and after
// every change its pick must equal the linear scan's.
func TestLeastConnTreeMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 5, 8, 63, 64, 65, 1000} {
		d := newLeastConn(n)
		out := make([]int64, n)
		for step := 0; step < 20*n+100; step++ {
			i := r.Intn(n)
			if out[i] > 0 && r.Intn(2) == 0 {
				out[i]--
			} else {
				out[i]++
			}
			d.counted(out, i)
			if got, want := d.pick(out), scanArgmin(out); got != want {
				t.Fatalf("n=%d step %d: tree picks %d, the scan %d (counts %v)", n, step, got, want, out)
			}
		}
	}
}

// BenchmarkLeastConnPick is one request's dispatcher work on a 4096-server
// fleet: a pick, its dispatch count, and the delivery of an earlier
// request.
func BenchmarkLeastConnPick(b *testing.B) {
	const n = 4096
	d := newLeastConn(n)
	out := make([]int64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := d.pick(out)
		out[i]++
		d.counted(out, i)
		if j := (k * 7) % n; out[j] > 0 {
			out[j]--
			d.counted(out, j)
		}
	}
}
