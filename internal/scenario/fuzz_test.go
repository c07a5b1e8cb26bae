package scenario

import (
	"os"
	"testing"

	"halsim/internal/sim"
)

// FuzzScenarioParse asserts the whole front end — YAML decode, schema
// checks, cross-field validation, chaos generation, plan compilation —
// either parses or errors, and never panics, on arbitrary input.
func FuzzScenarioParse(f *testing.F) {
	f.Add([]byte(fullDoc))
	f.Add([]byte(chaosDoc))
	f.Add([]byte("name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\n"))
	f.Add([]byte("name: x\nrun:\n  duration: -1ms\n  rate_gbps: 1\n"))
	f.Add([]byte("name: x\nrun:\n  rate_gbps: 1\n  duration: 1ms\nchaos:\n  events: 100\n  window: 1us..2us\n"))
	f.Add([]byte("name: \"x\"\nassertions:\n  - metric: avg_gbps\n"))
	f.Add([]byte(":\n- -\n  -\n"))
	for _, doc := range []string{clusterDoc, podDoc, keysSLBDoc, keysTraceDoc, keysFleetDoc} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// A scenario that parsed must also compile (Parse validates via a
		// dry-run compile) and render a config echo without panicking.
		if _, err := s.Compile(Overrides{}); err != nil {
			t.Fatalf("parsed scenario failed to compile: %v", err)
		}
	})
}

// FuzzScenarioRun runs what validation accepts: any fleet document that
// parses is capped at 8 servers, 100 µs and 800 Gbps (so one input stays a
// few milliseconds of work) and validated again; if it still validates, it
// must run without a panic or a run error.
func FuzzScenarioRun(f *testing.F) {
	fleetChaos, err := os.ReadFile("../../examples/scenarios/fleet-chaos.yaml")
	if err != nil {
		f.Fatal(err)
	}
	for _, doc := range []string{clusterDoc, podDoc, string(fleetChaos)} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil || s.Cfg.Cluster == nil {
			return
		}
		cl := *s.Cfg.Cluster
		cl.Servers = min(cl.Servers, 8)
		s.Cfg.Cluster = &cl
		s.RC.Duration = min(s.RC.Duration, 100*sim.Microsecond)
		s.RC.RateGbps = min(s.RC.RateGbps, 800)
		if s.Validate() != nil {
			return
		}
		if _, err := s.Execute(Overrides{}); err != nil {
			t.Fatalf("validated fleet failed to run: %v", err)
		}
	})
}
