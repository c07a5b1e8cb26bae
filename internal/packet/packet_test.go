package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

var (
	snicAddr = Addr{MAC: MAC{0x02, 0, 0, 0, 0, 1}, IP: IPv4{10, 0, 0, 1}}
	hostAddr = Addr{MAC: MAC{0x02, 0, 0, 0, 0, 2}, IP: IPv4{10, 0, 0, 2}}
	cliAddr  = Addr{MAC: MAC{0x02, 0, 0, 0, 0, 9}, IP: IPv4{10, 0, 0, 9}}
)

func TestMarshalParseRoundTrip(t *testing.T) {
	p := New(cliAddr, snicAddr, 4000, 9000, []byte("hello network function"))
	p.ID = 777 % 65536
	wire := p.Marshal()
	q, err := Parse(wire)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.SrcMAC != p.SrcMAC || q.DstMAC != p.DstMAC {
		t.Fatal("MAC mismatch after round trip")
	}
	if q.SrcIP != p.SrcIP || q.DstIP != p.DstIP {
		t.Fatal("IP mismatch after round trip")
	}
	if q.SrcPort != 4000 || q.DstPort != 9000 {
		t.Fatal("port mismatch")
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q vs %q", q.Payload, p.Payload)
	}
	if q.ID != 777 {
		t.Fatalf("id = %d", q.ID)
	}
}

func TestMarshalParsePropertyRoundTrip(t *testing.T) {
	f := func(payload []byte, sp, dp uint16, id uint16) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		p := New(cliAddr, snicAddr, sp, dp, payload)
		p.ID = uint64(id)
		q, err := Parse(p.Marshal())
		if err != nil {
			return false
		}
		return bytes.Equal(q.Payload, payload) && q.SrcPort == sp && q.DstPort == dp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(make([]byte, 10)); err != ErrTruncated {
		t.Fatalf("short frame: err = %v", err)
	}
	p := New(cliAddr, snicAddr, 1, 2, []byte("x"))
	wire := p.Marshal()

	bad := append([]byte(nil), wire...)
	binary.BigEndian.PutUint16(bad[12:14], 0x86dd) // IPv6 ethertype
	if _, err := Parse(bad); err != ErrNotIPv4 {
		t.Fatalf("ethertype: err = %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[EthHeaderLen+8]++ // corrupt TTL -> checksum mismatch
	if _, err := Parse(bad); err != ErrBadChecksum {
		t.Fatalf("checksum: err = %v", err)
	}

	bad = append([]byte(nil), wire...)
	bad[EthHeaderLen+9] = 6 // TCP
	// fix IP checksum for the new proto byte
	binary.BigEndian.PutUint16(bad[EthHeaderLen+10:], 0)
	cs := Checksum(bad[EthHeaderLen : EthHeaderLen+IPv4HeaderLen])
	binary.BigEndian.PutUint16(bad[EthHeaderLen+10:], cs)
	if _, err := Parse(bad); err != ErrNotUDP {
		t.Fatalf("proto: err = %v", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style check: a header whose checksum field holds
	// the correct value sums to zero.
	p := New(cliAddr, snicAddr, 53, 53, []byte("q"))
	wire := p.Marshal()
	ip := wire[EthHeaderLen : EthHeaderLen+IPv4HeaderLen]
	if Checksum(ip) != 0 {
		t.Fatal("checksum over checksummed header should be 0")
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length data is padded with a zero byte per RFC 1071.
	even := Checksum([]byte{0x12, 0x34, 0x56, 0x00})
	odd := Checksum([]byte{0x12, 0x34, 0x56})
	if even != odd {
		t.Fatalf("odd-length pad mismatch: %04x vs %04x", even, odd)
	}
}

func TestIncrementalEqualsFullRecompute16(t *testing.T) {
	f := func(data [20]byte, pos8 uint8, newVal uint16) bool {
		b := data[:]
		pos := int(pos8) % (len(b) / 2) * 2
		old := Checksum(b)
		oldVal := binary.BigEndian.Uint16(b[pos:])
		incr := UpdateChecksum16(old, oldVal, newVal)
		binary.BigEndian.PutUint16(b[pos:], newVal)
		full := Checksum(b)
		// RFC 1624 arithmetic can produce the alternate zero
		// representation (0xffff vs 0x0000 denote the same sum);
		// accept either.
		return incr == full || (incr^full) == 0xffff && (incr == 0 || full == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteDstProducesValidFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		payload := make([]byte, rng.Intn(256))
		rng.Read(payload)
		p := New(cliAddr, snicAddr, uint16(rng.Uint32()), uint16(rng.Uint32()), payload)
		p.Marshal() // populate checksums
		p.RewriteDst(hostAddr)
		// The frame re-marshaled from rewritten fields must carry the
		// same checksums the incremental path predicted.
		q := *p
		wire := q.Marshal()
		if q.IPChecksum != p.IPChecksum {
			t.Fatalf("iter %d: incremental IP checksum %04x != recomputed %04x",
				i, p.IPChecksum, q.IPChecksum)
		}
		parsed, err := Parse(wire)
		if err != nil {
			t.Fatalf("iter %d: rewritten frame unparseable: %v", i, err)
		}
		if parsed.DstIP != hostAddr.IP || parsed.DstMAC != hostAddr.MAC {
			t.Fatal("rewrite did not take effect")
		}
	}
}

func TestRewriteSrcProducesValidFrame(t *testing.T) {
	p := New(hostAddr, cliAddr, 9000, 4000, []byte("response bytes"))
	p.Marshal()
	p.RewriteSrc(snicAddr) // the merger masquerades host responses as SNIC
	q := *p
	q.Marshal()
	if q.IPChecksum != p.IPChecksum {
		t.Fatalf("incremental IP %04x != full %04x", p.IPChecksum, q.IPChecksum)
	}
	if q.UDPChecksum != p.UDPChecksum {
		t.Fatalf("incremental UDP %04x != full %04x", p.UDPChecksum, q.UDPChecksum)
	}
	if p.SrcIP != snicAddr.IP {
		t.Fatal("src not rewritten")
	}
}

func TestRewriteRoundTripRestoresChecksum(t *testing.T) {
	p := New(cliAddr, snicAddr, 1, 2, []byte("abc"))
	p.Marshal()
	orig := p.IPChecksum
	p.RewriteDst(hostAddr)
	p.RewriteDst(snicAddr)
	if p.IPChecksum != orig {
		t.Fatalf("checksum not restored: %04x vs %04x", p.IPChecksum, orig)
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

func BenchmarkMarshal(b *testing.B) {
	p := New(cliAddr, snicAddr, 1, 2, make([]byte, 1400))
	b.SetBytes(int64(p.WireLen))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Marshal()
	}
}

func BenchmarkRewriteDst(b *testing.B) {
	p := New(cliAddr, snicAddr, 1, 2, make([]byte, 1400))
	p.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			p.RewriteDst(hostAddr)
		} else {
			p.RewriteDst(snicAddr)
		}
	}
}

func FuzzParse(f *testing.F) {
	p := New(cliAddr, snicAddr, 4000, 9000, []byte("seed payload"))
	f.Add(p.Marshal())
	f.Add([]byte{})
	f.Add(make([]byte, 41))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, wire []byte) {
		// Parse must never panic, and anything it accepts must
		// re-marshal into a frame it accepts again.
		q, err := Parse(wire)
		if err != nil {
			return
		}
		if _, err := Parse(q.Marshal()); err != nil {
			t.Fatalf("re-parse of accepted frame failed: %v", err)
		}
	})
}

// TestPacketSize pins the pooled packet at 96 bytes, a cache line and a
// half: a field that grows it is a visible diff here.
func TestPacketSize(t *testing.T) {
	if s := unsafe.Sizeof(Packet{}); s != 96 {
		t.Fatalf("Packet is %d bytes, want 96", s)
	}
}
