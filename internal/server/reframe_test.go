package server

import (
	"math/rand"
	"testing"

	"halsim/internal/nf"
)

func TestReframeProducesAcceptedRequests(t *testing.T) {
	// Whatever bytes stage one emits, reframe must yield a request the
	// stage-two function accepts.
	rng := rand.New(rand.NewSource(11))
	outputs := [][]byte{
		nil,
		{0x0A},
		{0x0A, 0x00, 0x00, 0x01, 0x12, 0x34},
		make([]byte, 12),
		make([]byte, 100),
	}
	rng.Read(outputs[4])
	for _, id := range nf.All {
		fn, _, err := newFn(id, "")
		if err != nil {
			t.Fatal(err)
		}
		for oi, out := range outputs {
			req := reframe(out, id)
			if _, err := fn.Process(req); err != nil {
				t.Errorf("%v: reframed output %d rejected: %v", id, oi, err)
			}
		}
	}
}

func TestFunctionalPipelineNoErrors(t *testing.T) {
	for _, second := range []nf.ID{nf.REM, nf.Crypto} {
		cfg := Config{Mode: SNICOnly, Fn: nf.NAT, PipelineOn: true, Pipeline: second, Functional: true}
		rc := RunConfig{Duration: 10 * 1000 * 1000, RateGbps: 2} // 10ms
		res, err := Run(cfg, rc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 {
			t.Fatalf("NAT+%v: nothing completed", second)
		}
		if res.FuncErrors != 0 {
			t.Fatalf("NAT+%v: %d functional errors", second, res.FuncErrors)
		}
	}
}
