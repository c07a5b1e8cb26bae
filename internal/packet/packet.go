// Package packet implements the wire-format substrate of the simulator:
// Ethernet II / IPv4 / UDP framing with real marshaling, parsing, internet
// checksums, and RFC 1624 incremental checksum updates.
//
// HAL's traffic director and traffic merger rewrite destination and source
// addresses of live packets and must fix checksums as they do so; this
// package provides exactly those operations on real bytes so that the
// address-rewriting dataplane of the paper is implemented, not assumed.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4 is a 32-bit IPv4 address.
type IPv4 [4]byte

func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Addr bundles the L2+L3 identity of an endpoint. The paper provisions two
// such identities: one advertised to clients (the SNIC's) and a hidden one
// for the host processor.
type Addr struct {
	MAC MAC
	IP  IPv4
}

// Frame sizes and protocol constants.
const (
	EthHeaderLen   = 14
	IPv4HeaderLen  = 20 // no options
	UDPHeaderLen   = 8
	HeaderOverhead = EthHeaderLen + IPv4HeaderLen + UDPHeaderLen

	EtherTypeIPv4 = 0x0800
	ProtoUDP      = 17

	// MTU is the maximum transmission unit used throughout the paper's
	// MTU-size experiments (1500-byte IP packets).
	MTU = 1500
	// MaxPayload is the largest UDP payload that fits in an MTU frame.
	MaxPayload = MTU - IPv4HeaderLen - UDPHeaderLen
	// MinWireLen is the minimum Ethernet frame length (64B incl. FCS; we
	// exclude FCS and padding accounting and use the 64B convention).
	MinWireLen = 64
)

// Packet is a simulated network packet. Header fields are kept unpacked for
// fast access on the hot path; Marshal/Parse convert to and from real wire
// bytes whenever a component needs to touch the bytes themselves (checksum
// updates, address rewrites, payload processing).
type Packet struct {
	// Identity and addressing.
	ID      uint64
	SrcMAC  MAC
	DstMAC  MAC
	SrcIP   IPv4
	DstIP   IPv4
	SrcPort uint16
	DstPort uint16
	Proto   uint8

	// Payload carries the application bytes consumed by the network
	// functions (queries, keys, documents, ...).
	Payload []byte

	// WireLen is the frame's on-the-wire size in bytes, including all
	// headers. It may exceed len(Payload)+HeaderOverhead when the
	// payload is a compact stand-in for a larger simulated transfer.
	WireLen int

	// IPChecksum and UDPChecksum mirror the header checksums. They are
	// maintained by Marshal/Parse and by the incremental rewrite
	// helpers.
	IPChecksum  uint16
	UDPChecksum uint16

	// Timestamps (simulation nanoseconds) for latency accounting.
	CreatedAt  int64
	EnqueuedAt int64
	DepartedAt int64

	// FnTag routes the packet to a network function in pipelined setups.
	FnTag uint8
	// Diverted marks packets the traffic director redirected to the host.
	Diverted bool
	// ReqLen is, on a response, the wire length of the request it
	// answers, so whoever receives the response can account the request's
	// bytes without a table of its own. It fills the struct's tail padding.
	ReqLen int32
}

// New returns a packet with the given 5-tuple and payload; WireLen defaults
// to the real frame size (clamped up to the 64-byte Ethernet minimum).
// Hot paths should obtain packets from a Pool instead.
func New(src, dst Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	p := &Packet{}
	p.init(src, dst, srcPort, dstPort, payload)
	return p
}

// init fills a zeroed packet with the given 5-tuple and payload (shared by
// New and Pool.Get).
func (p *Packet) init(src, dst Addr, srcPort, dstPort uint16, payload []byte) {
	p.SrcMAC = src.MAC
	p.DstMAC = dst.MAC
	p.SrcIP = src.IP
	p.DstIP = dst.IP
	p.SrcPort = srcPort
	p.DstPort = dstPort
	p.Proto = ProtoUDP
	p.Payload = payload
	p.WireLen = len(payload) + HeaderOverhead
	if p.WireLen < MinWireLen {
		p.WireLen = MinWireLen
	}
}

// reset reinitializes a recycled packet in one composite-literal store, so
// the zeroing of the stale struct and the field writes of init fuse into a
// single pass over the memory.
func (p *Packet) reset(src, dst Addr, srcPort, dstPort uint16, payload []byte) {
	wl := len(payload) + HeaderOverhead
	if wl < MinWireLen {
		wl = MinWireLen
	}
	*p = Packet{
		SrcMAC:  src.MAC,
		DstMAC:  dst.MAC,
		SrcIP:   src.IP,
		DstIP:   dst.IP,
		SrcPort: srcPort,
		DstPort: dstPort,
		Proto:   ProtoUDP,
		Payload: payload,
		WireLen: wl,
	}
}

var (
	// ErrTruncated reports a frame shorter than its headers claim.
	ErrTruncated = errors.New("packet: truncated frame")
	// ErrNotIPv4 reports a non-IPv4 ethertype.
	ErrNotIPv4 = errors.New("packet: not IPv4")
	// ErrNotUDP reports a non-UDP transport protocol.
	ErrNotUDP = errors.New("packet: not UDP")
	// ErrBadChecksum reports an IPv4 header checksum mismatch.
	ErrBadChecksum = errors.New("packet: bad IPv4 header checksum")
)

// Marshal renders the packet as real wire bytes (Ethernet II + IPv4 + UDP)
// and stores the computed checksums back into the packet.
func (p *Packet) Marshal() []byte { return p.MarshalInto(nil) }

// MarshalInto is Marshal with scratch-buffer reuse: when buf has enough
// capacity the frame is rendered into it (resliced to the frame length) and
// no allocation happens; otherwise a fresh buffer is allocated. Callers
// that marshal in a loop should feed the previous result back in.
func (p *Packet) MarshalInto(buf []byte) []byte {
	total := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen + len(p.Payload)
	var b []byte
	if cap(buf) >= total {
		b = buf[:total]
	} else {
		b = make([]byte, total)
	}

	// Ethernet.
	copy(b[0:6], p.DstMAC[:])
	copy(b[6:12], p.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], EtherTypeIPv4)

	// IPv4.
	ip := b[EthHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:4], uint16(IPv4HeaderLen+UDPHeaderLen+len(p.Payload)))
	binary.BigEndian.PutUint16(ip[4:6], uint16(p.ID)) // identification
	ip[6], ip[7] = 0, 0                               // flags/fragment (reused buffers carry stale bytes)
	ip[8] = 64                                        // TTL
	ip[9] = p.Proto
	copy(ip[12:16], p.SrcIP[:])
	copy(ip[16:20], p.DstIP[:])
	binary.BigEndian.PutUint16(ip[10:12], 0)
	ipSum := Checksum(ip[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(ip[10:12], ipSum)
	p.IPChecksum = ipSum

	// UDP.
	udp := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], p.SrcPort)
	binary.BigEndian.PutUint16(udp[2:4], p.DstPort)
	binary.BigEndian.PutUint16(udp[4:6], uint16(UDPHeaderLen+len(p.Payload)))
	binary.BigEndian.PutUint16(udp[6:8], 0)
	copy(udp[UDPHeaderLen:], p.Payload)
	udpSum := udpChecksum(p.SrcIP, p.DstIP, udp)
	binary.BigEndian.PutUint16(udp[6:8], udpSum)
	p.UDPChecksum = udpSum

	return b
}

// Parse decodes wire bytes produced by Marshal (or any Ethernet/IPv4/UDP
// frame without IP options) and validates the IPv4 header checksum.
func Parse(b []byte) (*Packet, error) {
	if len(b) < EthHeaderLen+IPv4HeaderLen+UDPHeaderLen {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(b[12:14]) != EtherTypeIPv4 {
		return nil, ErrNotIPv4
	}
	p := &Packet{}
	copy(p.DstMAC[:], b[0:6])
	copy(p.SrcMAC[:], b[6:12])

	ip := b[EthHeaderLen:]
	if ip[0] != 0x45 {
		return nil, fmt.Errorf("packet: unsupported IP version/IHL 0x%02x", ip[0])
	}
	if Checksum(ip[:IPv4HeaderLen]) != 0 {
		return nil, ErrBadChecksum
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen < IPv4HeaderLen+UDPHeaderLen || EthHeaderLen+totalLen > len(b) {
		return nil, ErrTruncated
	}
	p.ID = uint64(binary.BigEndian.Uint16(ip[4:6]))
	p.Proto = ip[9]
	if p.Proto != ProtoUDP {
		return nil, ErrNotUDP
	}
	copy(p.SrcIP[:], ip[12:16])
	copy(p.DstIP[:], ip[16:20])
	p.IPChecksum = binary.BigEndian.Uint16(ip[10:12])

	udp := ip[IPv4HeaderLen:totalLen]
	p.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	p.DstPort = binary.BigEndian.Uint16(udp[2:4])
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen < UDPHeaderLen || udpLen > len(udp) {
		return nil, ErrTruncated
	}
	p.UDPChecksum = binary.BigEndian.Uint16(udp[6:8])
	p.Payload = append([]byte(nil), udp[UDPHeaderLen:udpLen]...)
	p.WireLen = EthHeaderLen + totalLen
	if p.WireLen < MinWireLen {
		p.WireLen = MinWireLen
	}
	return p, nil
}

// Checksum computes the 16-bit one's-complement internet checksum (RFC
// 1071) over b. Computing it over a header whose checksum field holds the
// correct value yields zero.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// udpChecksum computes the UDP checksum including the IPv4 pseudo-header.
func udpChecksum(src, dst IPv4, udp []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = ProtoUDP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(udp)))

	var sum uint32
	add := func(b []byte) {
		for len(b) >= 2 {
			sum += uint32(binary.BigEndian.Uint16(b[:2]))
			b = b[2:]
		}
		if len(b) == 1 {
			sum += uint32(b[0]) << 8
		}
	}
	add(pseudo[:])
	add(udp)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	cs := ^uint16(sum)
	if cs == 0 {
		cs = 0xffff // RFC 768: transmitted as all-ones
	}
	return cs
}

// UpdateChecksum16 applies the RFC 1624 incremental update: given a
// checksum old over data containing 16-bit word oldVal, it returns the
// checksum after oldVal is replaced by newVal (HC' = ~(~HC + ~m + m')).
func UpdateChecksum16(old, oldVal, newVal uint16) uint16 {
	sum := uint32(^old) + uint32(^oldVal) + uint32(newVal)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UpdateChecksum32 incrementally folds a 32-bit field replacement (e.g. an
// IPv4 address) into a checksum.
func UpdateChecksum32(old uint16, oldVal, newVal [4]byte) uint16 {
	cs := UpdateChecksum16(old,
		uint16(oldVal[0])<<8|uint16(oldVal[1]),
		uint16(newVal[0])<<8|uint16(newVal[1]))
	return UpdateChecksum16(cs,
		uint16(oldVal[2])<<8|uint16(oldVal[3]),
		uint16(newVal[2])<<8|uint16(newVal[3]))
}

// RewriteDst retargets the packet to addr in place — the traffic director's
// divert operation — updating the IPv4 header checksum (and the UDP
// checksum, which covers the pseudo-header) incrementally per RFC 1624.
func (p *Packet) RewriteDst(addr Addr) {
	oldIP := p.DstIP
	p.DstMAC = addr.MAC
	p.DstIP = addr.IP
	p.IPChecksum = UpdateChecksum32(p.IPChecksum, oldIP, addr.IP)
	if p.UDPChecksum != 0 {
		p.UDPChecksum = UpdateChecksum32(p.UDPChecksum, oldIP, addr.IP)
	}
}

// RewriteSrc rewrites the packet's source to addr in place — the traffic
// merger's operation on host-originated responses — with the same
// incremental checksum maintenance as RewriteDst.
func (p *Packet) RewriteSrc(addr Addr) {
	oldIP := p.SrcIP
	p.SrcMAC = addr.MAC
	p.SrcIP = addr.IP
	p.IPChecksum = UpdateChecksum32(p.IPChecksum, oldIP, addr.IP)
	if p.UDPChecksum != 0 {
		p.UDPChecksum = UpdateChecksum32(p.UDPChecksum, oldIP, addr.IP)
	}
}
