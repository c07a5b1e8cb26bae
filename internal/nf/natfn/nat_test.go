package natfn

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"halsim/internal/rng"
)

func req(ip uint32, port uint16) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint32(b[0:4], ip)
	binary.BigEndian.PutUint16(b[4:6], port)
	binary.BigEndian.PutUint32(b[6:10], 0x08080808)
	binary.BigEndian.PutUint16(b[10:12], 443)
	return b
}

func TestTranslateStable(t *testing.T) {
	f := NewFunc(16)
	r1, err := f.Process(req(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Process(req(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if string(r1) != string(r2) {
		t.Fatal("same flow must get the same translation")
	}
	if f.Table().Hits != 1 || f.Table().Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", f.Table().Hits, f.Table().Misses)
	}
}

func TestDistinctFlowsDistinctPorts(t *testing.T) {
	f := NewFunc(128)
	seen := map[uint16]bool{}
	for i := uint32(0); i < 100; i++ {
		resp, err := f.Process(req(i, uint16(2000+i)))
		if err != nil {
			t.Fatal(err)
		}
		port := binary.BigEndian.Uint16(resp[4:6])
		if seen[port] {
			t.Fatalf("external port %d reused across live flows", port)
		}
		seen[port] = true
	}
}

func TestReverseMapping(t *testing.T) {
	tb := NewTable(0x0A000001, 8)
	_, ext, _ := tb.Translate(42, 4242)
	ip, port, ok := tb.Reverse(ext)
	if !ok || ip != 42 || port != 4242 {
		t.Fatalf("reverse(%d) = %d,%d,%v", ext, ip, port, ok)
	}
	if _, _, ok := tb.Reverse(9); ok {
		t.Fatal("reverse of unmapped port should fail")
	}
}

func TestLRUEviction(t *testing.T) {
	tb := NewTable(1, 4)
	for i := uint32(0); i < 4; i++ {
		tb.Translate(i, 1)
	}
	// Touch flow 0 so it is most recent; inserting a 5th must evict flow 1.
	tb.Translate(0, 1)
	tb.Translate(99, 1)
	if tb.Len() != 4 {
		t.Fatalf("len = %d, want 4", tb.Len())
	}
	if tb.Evictions != 1 {
		t.Fatalf("evictions = %d", tb.Evictions)
	}
	// Flow 1 evicted → translating it again is a miss (new entry).
	missesBefore := tb.Misses
	tb.Translate(1, 1)
	if tb.Misses != missesBefore+1 {
		t.Fatal("evicted flow should miss")
	}
	// Flow 0 was retained.
	hitsBefore := tb.Hits
	tb.Translate(0, 1)
	if tb.Hits != hitsBefore+1 {
		t.Fatal("recently used flow should hit")
	}
}

func TestBijectionProperty(t *testing.T) {
	tb := NewTable(1, 512)
	f := func(ips []uint32) bool {
		for _, ip := range ips {
			_, ext, _ := tb.Translate(ip, uint16(ip))
			rip, rport, ok := tb.Reverse(ext)
			if !ok || rip != ip || rport != uint16(ip) {
				return false
			}
		}
		return tb.Len() <= 512
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBadRequest(t *testing.T) {
	f := NewFunc(8)
	if _, err := f.Process([]byte{1, 2, 3}); err != ErrBadRequest {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
}

func TestResponsePreservesDst(t *testing.T) {
	f := NewFunc(8)
	r := req(7, 7)
	resp, err := f.Process(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp[6:12]) != string(r[6:12]) {
		t.Fatal("destination half must pass through unchanged")
	}
	if binary.BigEndian.Uint32(resp[0:4]) != 0x0A000001 {
		t.Fatal("translated source IP should be the external IP")
	}
}

func TestFactoryConfigs(t *testing.T) {
	for _, cfg := range []string{"", "1k", "10k"} {
		fn, gen, err := New(cfg)
		if err != nil {
			t.Fatalf("config %q: %v", cfg, err)
		}
		rng := rng.Stream(1, rng.Payload, 0)
		for i := 0; i < 50; i++ {
			if _, err := fn.Process(gen.NextInto(&rng, nil)); err != nil {
				t.Fatalf("config %q: %v", cfg, err)
			}
		}
	}
}

func TestNewTablePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable(1, 0)
}

func TestPortAllocatorSkipsInUse(t *testing.T) {
	tb := NewTable(1, 64000)
	ports := map[uint16]int{}
	for i := uint32(0); i < 5000; i++ {
		_, p, _ := tb.Translate(i, 9)
		ports[p]++
		if ports[p] > 1 {
			t.Fatalf("port %d allocated twice among live flows", p)
		}
		if p < 1024 {
			t.Fatalf("allocated reserved port %d", p)
		}
	}
}

func TestPortExhaustionDropsGracefully(t *testing.T) {
	// A capacity above the usable port count (1024..65535 = 64512) lets
	// the table run the allocator dry without evicting. The translation
	// must refuse gracefully — drop counted, no panic.
	tb := NewTable(1, 70000)
	for i := uint32(0); i < 64512; i++ {
		if _, _, ok := tb.Translate(i, 1); !ok {
			t.Fatalf("unexpected exhaustion after %d flows", i)
		}
	}
	if _, _, ok := tb.Translate(1<<20, 1); ok {
		t.Fatal("translation past port exhaustion should refuse")
	}
	if tb.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tb.Dropped())
	}
	// The function surfaces the drop as an error, not a crash.
	f := &Func{table: tb}
	if _, err := f.Process(req(1<<21, 7)); err != ErrPortsExhausted {
		t.Fatalf("err = %v, want ErrPortsExhausted", err)
	}
	if tb.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tb.Dropped())
	}
}

func BenchmarkTranslate(b *testing.B) {
	tb := NewTable(1, 10240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Translate(uint32(i%20000), 1)
	}
}

// TestTableBuiltOnFirstUse: a new function holds no table; a rejected
// request builds none, the first translation builds it, and Table builds
// it on demand with the function's capacity.
func TestTableBuiltOnFirstUse(t *testing.T) {
	f := NewFunc(8)
	if f.table != nil {
		t.Fatal("a new NAT function holds a table")
	}
	if _, err := f.Process([]byte{1}); err != ErrBadRequest || f.table != nil {
		t.Fatalf("a rejected request: err %v, table built %v", err, f.table != nil)
	}
	if _, err := f.Process(req(1, 1)); err != nil {
		t.Fatal(err)
	}
	if f.table == nil || f.Table().Len() != 1 {
		t.Fatal("the first translation did not land in a table")
	}
	g := NewFunc(3)
	if g.Table().capacity != 3 || g.Table() != g.table {
		t.Fatal("Table did not build one table of the function's capacity")
	}
}

func TestNewFuncPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFunc(0)
}
