package eswitch

import (
	"slices"
	"strings"
	"testing"

	"halsim/internal/packet"
)

var (
	snicAddr = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.IPv4{10, 0, 0, 1}}
	hostAddr = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.IPv4{10, 0, 0, 2}}
	cliAddr  = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 9}, IP: packet.IPv4{10, 0, 0, 9}}
)

func to(dst packet.Addr) *packet.Packet {
	return packet.New(cliAddr, dst, 1000, 2000, nil)
}

func TestConfigureHALRouting(t *testing.T) {
	var s Switch
	var got [numPorts][]*packet.Packet
	for port := PortID(0); port < numPorts; port++ {
		port := port
		s.Bind(port, func(p *packet.Packet) { got[port] = append(got[port], p) })
	}
	s.ConfigureHAL(snicAddr, hostAddr)

	s.Forward(to(snicAddr))
	s.Forward(to(hostAddr))
	s.Forward(to(cliAddr)) // response path → wire

	if len(got[PortSNIC]) != 1 || len(got[PortHost]) != 1 || len(got[PortWire]) != 1 {
		t.Fatalf("deliveries = snic:%d host:%d wire:%d",
			len(got[PortSNIC]), len(got[PortHost]), len(got[PortWire]))
	}
	if got[PortSNIC][0].Dst.IP != snicAddr.IP || got[PortHost][0].Dst.IP != hostAddr.IP || got[PortWire][0].Dst.IP != cliAddr.IP {
		t.Fatal("a packet reached the wrong port")
	}
}

func TestRewrittenPacketChangesRoute(t *testing.T) {
	// The HAL traffic-director flow: a packet arrives addressed to the
	// SNIC; after RewriteDst to the host identity, the same switch
	// delivers it to the host port.
	var s Switch
	var snicN, hostN int
	s.Bind(PortSNIC, func(*packet.Packet) { snicN++ })
	s.Bind(PortHost, func(*packet.Packet) { hostN++ })
	s.Bind(PortWire, func(*packet.Packet) {})
	s.ConfigureHAL(snicAddr, hostAddr)

	s.Forward(to(snicAddr))
	p2 := to(snicAddr)
	p2.RewriteDst(hostAddr)
	s.Forward(p2)
	if snicN != 1 || hostN != 1 {
		t.Fatalf("snic=%d host=%d", snicN, hostN)
	}
}

func TestPriorityOrdering(t *testing.T) {
	var s Switch
	var hits []string
	s.Bind(PortSNIC, func(*packet.Packet) { hits = append(hits, "lo") })
	s.Bind(PortHost, func(*packet.Packet) { hits = append(hits, "hi") })
	s.AddRule(Rule{MatchIP: snicAddr.IP, Out: PortSNIC, Priority: 1})
	s.AddRule(Rule{MatchIP: snicAddr.IP, Out: PortHost, Priority: 5})
	s.Forward(to(snicAddr))
	if len(hits) != 1 || hits[0] != "hi" {
		t.Fatalf("hits = %v, higher priority must win", hits)
	}
}

func TestEqualPriorityInsertionOrder(t *testing.T) {
	var s Switch
	var out []PortID
	s.Bind(PortSNIC, func(*packet.Packet) { out = append(out, PortSNIC) })
	s.Bind(PortHost, func(*packet.Packet) { out = append(out, PortHost) })
	s.AddRule(Rule{Out: PortSNIC, Priority: 3})
	s.AddRule(Rule{Out: PortHost, Priority: 3})
	s.Forward(to(cliAddr))
	if len(out) != 1 || out[0] != PortSNIC {
		t.Fatal("equal priority should match in insertion order")
	}
}

// bindAll binds a counting sink to every port.
func bindAll(s *Switch) *[numPorts]int {
	var n [numPorts]int
	for port := PortID(0); port < numPorts; port++ {
		port := port
		s.Bind(port, func(*packet.Packet) { n[port]++ })
	}
	return &n
}

func TestUnmatchedDrops(t *testing.T) {
	var s Switch
	n := bindAll(&s)
	s.AddRule(Rule{MatchMAC: snicAddr.MAC, Out: PortSNIC})
	s.Forward(to(hostAddr))
	if *n != [numPorts]int{} {
		t.Fatalf("deliveries = %v, an unmatched packet must reach no port", *n)
	}
}

func TestUnboundPortDropsWithoutPanic(t *testing.T) {
	var s Switch
	n := bindAll(&s)
	s.Bind(PortWire, nil)
	s.AddRule(Rule{Out: PortWire})
	s.Forward(to(cliAddr))
	if *n != [numPorts]int{} {
		t.Fatalf("deliveries = %v, a packet for an unbound port must reach no port", *n)
	}
}

func TestRuleRoutesEveryMatch(t *testing.T) {
	var s Switch
	n := bindAll(&s)
	s.AddRule(Rule{MatchIP: snicAddr.IP, Out: PortSNIC})
	for i := 0; i < 7; i++ {
		s.Forward(to(snicAddr))
	}
	if *n != [numPorts]int{PortSNIC: 7} {
		t.Fatalf("deliveries = %v, want all 7 at the SNIC port", *n)
	}
}

func TestAddRulePastCapacityPanics(t *testing.T) {
	var s Switch
	for i := 0; i < MaxRules; i++ {
		s.AddRule(Rule{Out: PortWire, Priority: i})
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "rule table full") {
			t.Fatalf("panic %q, want a full-table message", msg)
		}
		if s.NumRules() != MaxRules {
			t.Fatalf("rules = %d after a rejected insert", s.NumRules())
		}
	}()
	s.AddRule(Rule{Out: PortWire})
}

// TestPriorityOrderAfterOutOfOrderInserts fills the table out of priority
// order and checks both the table and the routing it implies: descending
// priority, equal priorities in insertion order.
func TestPriorityOrderAfterOutOfOrderInserts(t *testing.T) {
	var s Switch
	n := bindAll(&s)
	s.AddRule(Rule{Out: PortWire, Priority: 1})
	s.AddRule(Rule{MatchIP: hostAddr.IP, Out: PortSNIC, Priority: 5})
	s.AddRule(Rule{MatchIP: snicAddr.IP, Out: PortHost, Priority: 3})
	s.AddRule(Rule{MatchIP: hostAddr.IP, Out: PortWire, Priority: 5})
	want := []Rule{
		{MatchIP: hostAddr.IP, Out: PortSNIC, Priority: 5},
		{MatchIP: hostAddr.IP, Out: PortWire, Priority: 5},
		{MatchIP: snicAddr.IP, Out: PortHost, Priority: 3},
		{Out: PortWire, Priority: 1},
	}
	if got := s.rules[:s.n]; !slices.Equal(got, want) {
		t.Fatalf("table = %+v, want %+v", got, want)
	}
	s.Forward(to(hostAddr)) // first of the two priority-5 rules
	s.Forward(to(snicAddr)) // priority 3 beats the priority-1 default
	s.Forward(to(cliAddr))  // only the default matches
	if *n != [numPorts]int{PortSNIC: 1, PortHost: 1, PortWire: 1} {
		t.Fatalf("deliveries = %v", *n)
	}
}

func TestMACOnlyAndWildcardMatching(t *testing.T) {
	var s Switch
	var n int
	s.Bind(PortHost, func(*packet.Packet) { n++ })
	s.AddRule(Rule{MatchMAC: hostAddr.MAC, Out: PortHost})
	p := to(hostAddr)
	p.Dst.IP = packet.IPv4{1, 2, 3, 4} // different IP, same MAC
	s.Forward(p)
	if n != 1 {
		t.Fatal("MAC-only rule should ignore IP")
	}
}

func TestClearRules(t *testing.T) {
	var s Switch
	s.ConfigureHAL(snicAddr, hostAddr)
	if s.NumRules() != 3 {
		t.Fatalf("rules = %d", s.NumRules())
	}
	s.ClearRules()
	if s.NumRules() != 0 {
		t.Fatal("clear failed")
	}
}

func TestBadPortPanics(t *testing.T) {
	var s Switch
	for _, f := range []func(){
		func() { s.Bind(PortID(99), nil) },
		func() { s.AddRule(Rule{Out: PortID(99)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPortStrings(t *testing.T) {
	if PortWire.String() != "wire" || PortSNIC.String() != "snic" || PortHost.String() != "host" {
		t.Fatal("port names")
	}
	if PortID(9).String() != "port(9)" {
		t.Fatal("unknown port name")
	}
}

func BenchmarkForward(b *testing.B) {
	var s Switch
	s.Bind(PortSNIC, func(*packet.Packet) {})
	s.Bind(PortHost, func(*packet.Packet) {})
	s.Bind(PortWire, func(*packet.Packet) {})
	s.ConfigureHAL(snicAddr, hostAddr)
	p := to(snicAddr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Forward(p)
	}
}
