package packet

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

var (
	snicAddr = Addr{MAC: MAC{0x02, 0, 0, 0, 0, 1}, IP: IPv4{10, 0, 0, 1}}
	hostAddr = Addr{MAC: MAC{0x02, 0, 0, 0, 0, 2}, IP: IPv4{10, 0, 0, 2}}
	cliAddr  = Addr{MAC: MAC{0x02, 0, 0, 0, 0, 9}, IP: IPv4{10, 0, 0, 9}}
)

// TestRewriteDstChangesOnlyDestination: the director's divert retargets
// the packet's L2 and L3 destination and leaves every other field as it
// was.
func TestRewriteDstChangesOnlyDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		payload := make([]byte, rng.Intn(256))
		rng.Read(payload)
		p := New(cliAddr, snicAddr, uint16(rng.Uint32()), uint16(rng.Uint32()), payload)
		want := *p
		want.Dst = hostAddr
		p.RewriteDst(hostAddr)
		if !reflect.DeepEqual(*p, want) {
			t.Fatalf("iter %d: rewritten %+v, want %+v", i, *p, want)
		}
	}
}

// TestRewriteSrcChangesOnlySource: the merger masquerades host responses
// as the SNIC by rewriting only their source.
func TestRewriteSrcChangesOnlySource(t *testing.T) {
	p := New(hostAddr, cliAddr, 9000, 4000, []byte("response bytes"))
	want := *p
	want.Src = snicAddr
	p.RewriteSrc(snicAddr)
	if !reflect.DeepEqual(*p, want) {
		t.Fatalf("rewritten %+v, want %+v", *p, want)
	}
}

// TestRewriteRoundTripRestoresPacket: diverting a packet to the host and
// back restores it exactly.
func TestRewriteRoundTripRestoresPacket(t *testing.T) {
	p := New(cliAddr, snicAddr, 1, 2, []byte("abc"))
	orig := *p
	p.RewriteDst(hostAddr)
	p.RewriteDst(snicAddr)
	if !reflect.DeepEqual(*p, orig) {
		t.Fatalf("round trip %+v, want %+v", *p, orig)
	}
}

func TestMinimumWireLen(t *testing.T) {
	p := New(cliAddr, snicAddr, 1, 2, nil)
	if p.WireLen != MinWireLen {
		t.Fatalf("WireLen = %d, want %d", p.WireLen, MinWireLen)
	}
	p = New(cliAddr, snicAddr, 1, 2, make([]byte, 1000))
	if p.WireLen != 1000+HeaderOverhead {
		t.Fatalf("WireLen = %d", p.WireLen)
	}
}

func TestStringers(t *testing.T) {
	if snicAddr.MAC.String() != "02:00:00:00:00:01" {
		t.Fatalf("MAC string = %s", snicAddr.MAC)
	}
	if snicAddr.IP.String() != "10.0.0.1" {
		t.Fatalf("IP string = %s", snicAddr.IP)
	}
}

func BenchmarkRewriteDst(b *testing.B) {
	p := New(cliAddr, snicAddr, 1, 2, make([]byte, 1400))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			p.RewriteDst(hostAddr)
		} else {
			p.RewriteDst(snicAddr)
		}
	}
}

// TestPacketSize pins the pooled packet at 88 bytes: a field that grows it
// is a visible diff here.
func TestPacketSize(t *testing.T) {
	if s := unsafe.Sizeof(Packet{}); s != 88 {
		t.Fatalf("Packet is %d bytes, want 88", s)
	}
}
