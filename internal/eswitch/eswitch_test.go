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
	s.ConfigureHAL(snicAddr, hostAddr)
	for _, tc := range []struct {
		dst  packet.Addr
		want PortID
	}{
		{snicAddr, PortSNIC},
		{hostAddr, PortHost},
		{cliAddr, PortWire}, // response path → wire
	} {
		if got := s.Route(to(tc.dst)); got != tc.want {
			t.Errorf("a packet to %v routes to %v, want %v", tc.dst.IP, got, tc.want)
		}
	}
}

func TestRewrittenPacketChangesRoute(t *testing.T) {
	// The HAL traffic-director flow: a packet arrives addressed to the
	// SNIC; after RewriteDst to the host identity, the same switch
	// routes it to the host port.
	var s Switch
	s.ConfigureHAL(snicAddr, hostAddr)
	p := to(snicAddr)
	if got := s.Route(p); got != PortSNIC {
		t.Fatalf("before the rewrite: %v, want snic", got)
	}
	p.RewriteDst(hostAddr)
	if got := s.Route(p); got != PortHost {
		t.Fatalf("after the rewrite: %v, want host", got)
	}
}

func TestPriorityOrdering(t *testing.T) {
	var s Switch
	s.AddRule(Rule{MatchIP: snicAddr.IP, Out: PortSNIC, Priority: 1})
	s.AddRule(Rule{MatchIP: snicAddr.IP, Out: PortHost, Priority: 5})
	if got := s.Route(to(snicAddr)); got != PortHost {
		t.Fatalf("routed to %v, higher priority must win", got)
	}
}

func TestEqualPriorityInsertionOrder(t *testing.T) {
	var s Switch
	s.AddRule(Rule{Out: PortSNIC, Priority: 3})
	s.AddRule(Rule{Out: PortHost, Priority: 3})
	if got := s.Route(to(cliAddr)); got != PortSNIC {
		t.Fatalf("routed to %v; equal priority should match in insertion order", got)
	}
}

func TestUnmatchedDrops(t *testing.T) {
	var s Switch
	if got := s.Route(to(cliAddr)); got != NoPort {
		t.Fatalf("an empty table routes to %v, want NoPort", got)
	}
	s.AddRule(Rule{MatchMAC: snicAddr.MAC, Out: PortSNIC})
	if got := s.Route(to(hostAddr)); got != NoPort {
		t.Fatalf("an unmatched packet routes to %v, want NoPort", got)
	}
}

func TestRuleRoutesEveryMatch(t *testing.T) {
	var s Switch
	s.AddRule(Rule{MatchIP: snicAddr.IP, Out: PortSNIC})
	for i := 0; i < 7; i++ {
		if got := s.Route(to(snicAddr)); got != PortSNIC {
			t.Fatalf("route %d: %v, want snic", i, got)
		}
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
	got := []PortID{
		s.Route(to(hostAddr)), // first of the two priority-5 rules
		s.Route(to(snicAddr)), // priority 3 beats the priority-1 default
		s.Route(to(cliAddr)),  // only the default matches
	}
	if want := []PortID{PortSNIC, PortHost, PortWire}; !slices.Equal(got, want) {
		t.Fatalf("routes = %v, want %v", got, want)
	}
}

func TestMACOnlyAndWildcardMatching(t *testing.T) {
	var s Switch
	s.AddRule(Rule{MatchMAC: hostAddr.MAC, Out: PortHost})
	p := to(hostAddr)
	p.Dst.IP = packet.IPv4{1, 2, 3, 4} // different IP, same MAC
	if got := s.Route(p); got != PortHost {
		t.Fatalf("routed to %v; a MAC-only rule should ignore the IP", got)
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
		func() { s.AddRule(Rule{Out: PortID(99)}) },
		func() { s.AddRule(Rule{Out: NoPort}) },
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

// BenchmarkRoute routes the three kinds of packet a HAL server's switch
// sees: requests to the SNIC and the host, and responses to the wire.
func BenchmarkRoute(b *testing.B) {
	var s Switch
	s.ConfigureHAL(snicAddr, hostAddr)
	ps := [...]*packet.Packet{to(snicAddr), to(hostAddr), to(cliAddr)}
	var hits [numPorts]int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hits[s.Route(ps[i%len(ps)])]++
	}
	if hits[PortSNIC]+hits[PortHost]+hits[PortWire] != b.N {
		b.Fatalf("routes = %v over %d packets; every packet matches a rule", hits, b.N)
	}
}
