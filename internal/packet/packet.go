// Package packet is the simulator's packet substrate: a simulated
// Ethernet II / IPv4 / UDP packet kept as unpacked header fields, a payload
// and a wire length, plus the pool that recycles packets and payload
// buffers on the hot path.
//
// HAL's traffic director and traffic merger rewrite the destination and
// source addresses of live packets; RewriteDst and RewriteSrc are those
// operations, and the eSwitch routes on the rewritten addresses. No run
// renders a packet's header bytes, so the package keeps no wire codec and
// no checksums.
package packet

import "fmt"

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

	ProtoUDP = 17

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
// fast access on the hot path; only the payload is real bytes, and only
// when something in the run reads it.
type Packet struct {
	// Identity and addressing. Src and Dst are whole endpoints, so init
	// and the rewrites store each one as a single 10-byte copy.
	ID      uint64
	Src     Addr
	Dst     Addr
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

	// CreatedAt is the request's creation instant (simulation
	// nanoseconds), for latency accounting.
	CreatedAt int64

	// FnTag routes the packet to a network function in pipelined setups.
	FnTag uint8
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

// init writes every field of p, fresh or recycled: the 5-tuple and payload,
// the wire length they imply, and zero for the rest. It stores field by
// field; a composite-literal store of the whole struct compiles to a stack
// temporary and a duffcopy.
func (p *Packet) init(src, dst Addr, srcPort, dstPort uint16, payload []byte) {
	p.ID = 0
	p.Src = src
	p.Dst = dst
	p.SrcPort = srcPort
	p.DstPort = dstPort
	p.Proto = ProtoUDP
	p.Payload = payload
	p.WireLen = max(len(payload)+HeaderOverhead, MinWireLen)
	p.CreatedAt = 0
	p.FnTag = 0
	p.ReqLen = 0
}

// RewriteDst retargets the packet to addr in place — the traffic
// director's divert operation.
func (p *Packet) RewriteDst(addr Addr) {
	p.Dst = addr
}

// RewriteSrc rewrites the packet's source to addr in place — the traffic
// merger's operation on host-originated responses.
func (p *Packet) RewriteSrc(addr Addr) {
	p.Src = addr
}
