package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"halsim/internal/fault"
	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
	"halsim/internal/trace"
)

// delivery is one response's arrival at the ingress.
type delivery struct {
	at        sim.Time
	createdAt sim.Time
	reqLen    int32
}

// runRecorded runs a drained fleet like Run and also returns every
// response delivery the ingress saw, in order.
func runRecorded(t *testing.T, cfg server.Config, rc server.RunConfig) (server.Result, []delivery) {
	t.Helper()
	if err := server.Normalize(&cfg, &rc); err != nil {
		t.Fatal(err)
	}
	cc, err := cfg.Cluster.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	c := &crun{cfg: cfg, cc: cc, rc: rc}
	if err := c.build(); err != nil {
		t.Fatal(err)
	}
	var got []delivery
	deliver := c.respCall
	c.respCall = func(a any, srv int64) {
		p := a.(*packet.Packet)
		got = append(got, delivery{at: c.engs[0].Now(), createdAt: sim.Time(p.CreatedAt), reqLen: p.ReqLen})
		deliver(a, srv)
	}
	c.start()
	c.run()
	return c.collect(), got
}

// TestFleetMeter pins the fleet's client-side meter: a drained fleet with
// a rate window, phase marks and a bursty trace load reports the same
// RateSeries, MaxGbps and Phases serial and sharded, and both the series
// and MaxGbps equal what the ingress's own deliveries add up to window by
// window.
func TestFleetMeter(t *testing.T) {
	const (
		window     = 500 * sim.Microsecond // RateWindow
		maxWindow  = server.TraceEpoch     // a trace run's MaxGbps window
		duration   = 25 * sim.Millisecond
		mark1      = 8 * sim.Millisecond
		mark2      = 16 * sim.Millisecond
		numWindows = int(duration / window)
	)
	web := trace.Web
	run := func(shards int) (server.Result, []delivery) {
		return runRecorded(t,
			server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 5, Shards: shards,
				Cluster: &server.ClusterConfig{Servers: 4, Dispatch: "p2c"}},
			server.RunConfig{Duration: duration, Workload: &web, RateWindow: window,
				PhaseMarks: []sim.Time{mark1, mark2}, Drain: true})
	}
	serial, dels := run(0)
	sharded, _ := run(4)
	if sharded.Engine != "parallel" {
		t.Fatalf("Shards 4 ran on engine %q", sharded.Engine)
	}
	if !reflect.DeepEqual(serial.RateSeries, sharded.RateSeries) {
		t.Errorf("RateSeries differs:\nserial  %v\nsharded %v", serial.RateSeries, sharded.RateSeries)
	}
	if serial.MaxGbps != sharded.MaxGbps {
		t.Errorf("MaxGbps serial %v, sharded %v", serial.MaxGbps, sharded.MaxGbps)
	}
	if !reflect.DeepEqual(serial.Phases, sharded.Phases) {
		t.Errorf("Phases differ:\nserial  %+v\nsharded %+v", serial.Phases, sharded.Phases)
	}
	if len(serial.Phases) != 3 || serial.Phases[1].P99us == 0 {
		t.Errorf("want three phases with round trips, got %+v", serial.Phases)
	}

	// A window ticks at its end instant before any delivery landing
	// there, so a delivery at t belongs to window t/window. The drain
	// cancels the tickers at Duration, after the last full window.
	if len(serial.RateSeries) != numWindows || serial.RateWindow != window {
		t.Fatalf("%d windows of %v, want %d of %v", len(serial.RateSeries), serial.RateWindow, numWindows, window)
	}
	rateB := make([]int64, numWindows)
	maxB := make([]int64, duration/maxWindow)
	warmup := duration / 5
	for _, d := range dels {
		if i := int(d.at / window); i < numWindows {
			rateB[i] += int64(d.reqLen)
		}
		if i := int(d.at / maxWindow); i < len(maxB) && d.createdAt >= warmup {
			maxB[i] += int64(d.reqLen)
		}
	}
	for i, b := range rateB {
		if want := float64(b) * 8 / float64(window); serial.RateSeries[i] != want {
			t.Errorf("window %d: series %v Gbps, deliveries add up to %v", i, serial.RateSeries[i], want)
		}
	}
	wantMax := serial.AvgGbps
	for i, b := range maxB {
		if sim.Time(i+1)*maxWindow <= warmup {
			continue
		}
		if g := float64(b) * 8 / float64(maxWindow); g > wantMax {
			wantMax = g
		}
	}
	if serial.MaxGbps != wantMax {
		t.Errorf("MaxGbps %v, deliveries give %v", serial.MaxGbps, wantMax)
	}
}

// TestFleetTimelineAcrossEngines pins the sampling barriers the runner
// owns: a drained fleet with a server blackout, sampled at an odd period,
// writes the same timeline and metric text on the serial engine and
// sharded two ways. Every sample but the last sits at k·period+1; the last
// closes the drain, past Duration.
func TestFleetTimelineAcrossEngines(t *testing.T) {
	const (
		period   = 37 * sim.Microsecond
		duration = sim.Millisecond
	)
	run := func(shards int) (csv, metrics string, tl *telemetry.Timeline) {
		res, err := Run(server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 3, Shards: shards,
			Telemetry: telemetry.Config{Timeline: true, TimelinePeriod: period},
			Faults:    fault.NewPlan(3).CrashServer(2, 300*sim.Microsecond, 500*sim.Microsecond),
			Cluster:   &server.ClusterConfig{Servers: 6, Dispatch: "p2c"}},
			server.RunConfig{Duration: duration, RateGbps: 60, Drain: true})
		if err != nil {
			t.Fatal(err)
		}
		var c, m strings.Builder
		if err := res.Timeline.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := res.Metrics.WriteText(&m); err != nil {
			t.Fatal(err)
		}
		return c.String(), m.String(), res.Timeline
	}
	csv, metrics, tl := run(0)
	for _, shards := range []int{3, 7} {
		c, m, _ := run(shards)
		if c != csv {
			t.Errorf("shards %d: timeline differs from serial:\n%s\nserial:\n%s", shards, c, csv)
		}
		if m != metrics {
			t.Errorf("shards %d: metrics differ from serial:\n%s\nserial:\n%s", shards, m, metrics)
		}
	}
	n := tl.Len()
	if want := int(duration/period) + 1; n != want {
		t.Fatalf("%d samples, want %d ticks and the final one", n, want)
	}
	for i := 0; i < n-1; i++ {
		if got, want := tl.At(i).T, sim.Time(i+1)*period+1; got != want {
			t.Fatalf("sample %d at %v, want %v", i, got, want)
		}
	}
	if last := tl.At(n - 1).T; last <= duration {
		t.Fatalf("final sample at %v, want past the drain's start %v", last, duration)
	}
}

// TestFleetFaultsAcrossEngines drives every fault kind through one fleet,
// each kind on its own server, and pins that the serial engine, three
// shards and one LP per server give the same Result and timeline, that
// every window edge fires, and that the drained ledger closes.
func TestFleetFaultsAcrossEngines(t *testing.T) {
	const (
		servers  = 8
		duration = 2 * sim.Millisecond
	)
	from, to := 500*sim.Microsecond, 1200*sim.Microsecond
	plan := &fault.Plan{Seed: 9, Windows: []fault.Window{
		{From: from, To: to, Server: 0, Kind: fault.CoreCrash, Cores: 2},
		{From: from, To: to, Server: 1, Kind: fault.CoreCrash, Host: true, Cores: 1},
		{From: from, To: to, Server: 2, Kind: fault.RxDrop, DropProb: 0.3},
		{From: from, To: to, Server: 3, Kind: fault.RxDrop, Host: true, DropProb: 0.3},
		{From: from, To: to, Server: 4, Kind: fault.AccelDegrade},
		{From: from, To: to, Server: 5, Kind: fault.TelemetryBlackout},
		{From: from, To: to, Server: 6, Kind: fault.ServerCrash},
	}}
	// State transitions: 2+2 cores, 1+1 cores, one per edge for rx-drop
	// (x2), accel-degrade and telemetry, and both Rx sides per edge for the
	// server-crash.
	const transitions = 4 + 2 + 2 + 2 + 2 + 2 + 4
	run := func(shards int) (string, string) {
		res, err := Run(server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 4, Shards: shards, Faults: plan,
			Telemetry: telemetry.Config{Timeline: true},
			Cluster:   &server.ClusterConfig{Servers: servers, Dispatch: "p2c"}},
			server.RunConfig{Duration: duration, RateGbps: 8 * 60, Drain: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.InFlightEnd != 0 || res.SentAll != res.CompletedAll+res.DroppedAll {
			t.Fatalf("shards %d: ledger open: %d sent = %d completed + %d dropped, in flight %d",
				shards, res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd)
		}
		if res.FaultEvents != transitions || res.CoreCrashes != 3 || res.FaultDrops == 0 {
			t.Fatalf("shards %d: %d fault events (want %d), %d core crashes (want 3), %d fault drops",
				shards, res.FaultEvents, transitions, res.CoreCrashes, res.FaultDrops)
		}
		var csv strings.Builder
		if err := res.Timeline.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		res.Engine, res.Timeline, res.Metrics = "", nil, nil
		return fmt.Sprintf("%+v", res), csv.String()
	}
	serial, serialCSV := run(0)
	for _, shards := range []int{3, servers + 1} {
		res, csv := run(shards)
		if res != serial {
			t.Errorf("shards %d: Result differs from serial:\n%s\nserial:\n%s", shards, res, serial)
		}
		if csv != serialCSV {
			t.Errorf("shards %d: timeline differs from serial", shards)
		}
	}
}

// TestFleetPacketsSentMetric pins halsim_packets_sent_total on a fleet: the
// all-time offered count, warmup included, as on a single server, and the
// same on both engines.
func TestFleetPacketsSentMetric(t *testing.T) {
	for _, shards := range []int{0, 4} {
		res, err := Run(server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 2, Shards: shards,
			Telemetry: telemetry.Config{Timeline: true},
			Cluster:   &server.ClusterConfig{Servers: 4, Dispatch: "p2c"}},
			server.RunConfig{Duration: 2 * sim.Millisecond, Warmup: 500 * sim.Microsecond, RateGbps: 160})
		if err != nil {
			t.Fatal(err)
		}
		reg := res.Metrics
		sent := reg.Value(reg.Counter("halsim_packets_sent_total", ""))
		if uint64(sent) != res.SentAll || res.SentAll <= res.Sent {
			t.Errorf("shards %d: halsim_packets_sent_total %v, want SentAll %d (post-warmup Sent %d)",
				shards, sent, res.SentAll, res.Sent)
		}
	}
}

// TestFaultServerRange pins the one range check on fault events: a fleet of
// n takes servers 0..n-1, and Run refuses an event aimed past the fleet.
func TestFaultServerRange(t *testing.T) {
	for _, tc := range []struct {
		server int
		ok     bool
	}{{3, true}, {4, false}} {
		cfg := server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 1,
			Faults:  fault.NewPlan(1).CrashServer(tc.server, 100*sim.Microsecond, 200*sim.Microsecond),
			Cluster: &server.ClusterConfig{Servers: 4}}
		rc := server.RunConfig{Duration: 300 * sim.Microsecond, RateGbps: 40}
		err := server.Normalize(&cfg, &rc)
		if (err == nil) != tc.ok {
			t.Fatalf("server %d of 4: Normalize error %v", tc.server, err)
		}
		if _, runErr := Run(cfg, rc); (runErr == nil) != tc.ok {
			t.Fatalf("server %d of 4: Run error %v", tc.server, runErr)
		}
		if !tc.ok && !strings.Contains(err.Error(), "targets server 4 outside a fleet of 4") {
			t.Fatalf("error %q names neither the server nor the fleet size", err)
		}
	}
}
