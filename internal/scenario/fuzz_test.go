package scenario

import "testing"

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
