package server_test

import (
	"testing"

	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
)

// TestEventsTotalMatchesTimeline: halsim_engine_events_total is the run's
// event count, so it must equal the timeline's events column summed — on a
// single server and on a fleet, serial and sharded.
func TestEventsTotalMatchesTimeline(t *testing.T) {
	tel := telemetry.Config{Timeline: true}
	cases := []struct {
		name string
		run  func() (server.Result, error)
	}{
		{"single", func() (server.Result, error) {
			return server.Run(server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 3, Telemetry: tel},
				server.RunConfig{Duration: 5 * sim.Millisecond, RateGbps: 60})
		}},
		{"fleet-serial", func() (server.Result, error) { return profFleet(0, tel) }},
		{"fleet-shards4", func() (server.Result, error) { return profFleet(4, tel) }},
	}
	for _, tc := range cases {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var sum uint64
		for i := 0; i < res.Timeline.Len(); i++ {
			sum += res.Timeline.At(i).Events
		}
		got := res.Metrics.Value(res.Metrics.Counter("halsim_engine_events_total", ""))
		if sum == 0 || got != float64(sum) {
			t.Errorf("%s: halsim_engine_events_total = %v, timeline events sum to %d", tc.name, got, sum)
		}
	}
}
