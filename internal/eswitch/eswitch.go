// Package eswitch models the BlueField embedded switch (eSwitch) acting as
// the OvS data plane (§II-A): a match-action table over destination
// MAC/IP that routes packets to named ports (SNIC CPU path, host PCIe
// path, wire). The SNIC CPU — or HAL at boot — programs the rules; the
// switch then routes each packet by its destination identity, which is
// exactly the mechanism HAL's traffic director relies on after rewriting
// addresses. Route only names the port: the switch holds no sinks, and
// its owner carries the packet onward, so a switch embedded in a server
// makes no call of its own on the packet path.
package eswitch

import (
	"fmt"

	"halsim/internal/packet"
)

// PortID names an eSwitch port.
type PortID int

// The ports of a BF-2 eSwitch as used in the paper.
const (
	PortWire PortID = iota // physical Ethernet port
	PortSNIC               // SNIC CPU / accelerator path
	PortHost               // PCIe path to the host CPU
	numPorts

	// NoPort is Route's answer for a packet no rule matches: the switch
	// drops it.
	NoPort PortID = -1
)

func (p PortID) String() string {
	switch p {
	case PortWire:
		return "wire"
	case PortSNIC:
		return "snic"
	case PortHost:
		return "host"
	default:
		return fmt.Sprintf("port(%d)", int(p))
	}
}

// Rule is one match-action entry: packets whose destination matches are
// forwarded to Out. The match fields are held inline; a zero MAC or IP is
// a wildcard.
type Rule struct {
	MatchMAC packet.MAC
	MatchIP  packet.IPv4
	Out      PortID
	// Priority breaks ties; higher wins. Equal priorities match in
	// insertion order.
	Priority int
}

func (r *Rule) matches(p *packet.Packet) bool {
	return (r.MatchMAC == packet.MAC{} || r.MatchMAC == p.Dst.MAC) &&
		(r.MatchIP == packet.IPv4{} || r.MatchIP == p.Dst.IP)
}

// MaxRules is the rule table's capacity. The HAL/SLB configuration needs
// three rules and the single-processor ones two.
const MaxRules = 4

// Switch is the eSwitch. Its zero value has no rules and drops everything;
// the table is a fixed array of value rules, so a switch embedded in its
// owner routes inside the owner's memory. It is not safe for concurrent
// use; the simulator is single-threaded by design.
type Switch struct {
	rules [MaxRules]Rule
	n     int
}

// AddRule installs a rule, keeping the table in descending priority with
// equal priorities in insertion order. It panics on a bad port or when
// the table already holds MaxRules rules.
func (s *Switch) AddRule(r Rule) {
	if r.Out < 0 || r.Out >= numPorts {
		panic(fmt.Sprintf("eswitch: bad out port %d", r.Out))
	}
	if s.n == MaxRules {
		panic(fmt.Sprintf("eswitch: rule table full (%d rules)", MaxRules))
	}
	pos := s.n
	for i := 0; i < s.n; i++ {
		if s.rules[i].Priority < r.Priority {
			pos = i
			break
		}
	}
	copy(s.rules[pos+1:s.n+1], s.rules[pos:s.n])
	s.rules[pos] = r
	s.n++
}

// NumRules returns the installed rule count.
func (s *Switch) NumRules() int { return s.n }

// ClearRules removes all rules.
func (s *Switch) ClearRules() { s.rules, s.n = [MaxRules]Rule{}, 0 }

// Route returns the port of the first rule matching p, or NoPort when no
// rule does (the packet is dropped).
func (s *Switch) Route(p *packet.Packet) PortID {
	for i := 0; i < s.n; i++ {
		if r := &s.rules[i]; r.matches(p) {
			return r.Out
		}
	}
	return NoPort
}

// ConfigureHAL installs the standard HAL/SLB forwarding configuration
// (§IV, §V-A): packets addressed to the SNIC identity go to the SNIC CPU
// port, packets addressed to the (client-hidden) host identity go to the
// host PCIe port, and everything else — responses addressed to clients —
// goes to the wire.
func (s *Switch) ConfigureHAL(snicAddr, hostAddr packet.Addr) {
	s.ClearRules()
	s.AddRule(Rule{MatchMAC: snicAddr.MAC, MatchIP: snicAddr.IP, Out: PortSNIC, Priority: 10})
	s.AddRule(Rule{MatchMAC: hostAddr.MAC, MatchIP: hostAddr.IP, Out: PortHost, Priority: 10})
	s.AddRule(Rule{Out: PortWire, Priority: 0}) // default: egress
}
