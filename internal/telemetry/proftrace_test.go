package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"halsim/internal/telemetry/prof"
)

// TestRegistryConcurrentExposition hammers the registry from writer
// goroutines while the exposition path renders — the -telemetry-addr server
// races a live run exactly like this; run under -race this is the proof the
// mutex covers every surface.
func TestRegistryConcurrentExposition(t *testing.T) {
	reg := NewRegistry()
	ids := make([]MetricID, 8)
	for i := range ids {
		ids[i] = reg.Gauge(fmt.Sprintf("halsim_test_g%d", i), "test gauge")
	}
	const writers, iters = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter(fmt.Sprintf("halsim_test_c%d", w), "test counter")
			for i := 0; i < iters; i++ {
				reg.Set(ids[(w+i)%len(ids)], float64(i))
				reg.Add(c, 1)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("empty exposition mid-run")
		}
	}
	wg.Wait()
	if reg.Len() != len(ids)+writers {
		t.Fatalf("registered %d metrics, want %d", reg.Len(), len(ids)+writers)
	}
	var final bytes.Buffer
	if err := reg.WriteText(&final); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		want := fmt.Sprintf("halsim_test_c%d %d", w, iters)
		if !bytes.Contains(final.Bytes(), []byte(want)) {
			t.Fatalf("final exposition missing %q:\n%s", want, final.String())
		}
	}
}

// TestWriteProfTrace checks the flight-recorder trace document: one pid-2
// lane per LP with window spans named by binder — and only Chrome phases
// X/M.
func TestWriteProfTrace(t *testing.T) {
	rec := prof.NewRecorder([]string{"ingress", "servers-0-3"})
	rec.LaneAt(0).Window(0, 500, prof.BindEnd)
	rec.LaneAt(1).Window(0, 400, 0)
	rec.LaneAt(1).Window(400, 900, prof.BindSelf)

	render := func() []byte {
		var buf bytes.Buffer
		if err := WriteProfTrace(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	out := render()
	if !bytes.Equal(out, render()) {
		t.Fatal("profiled trace is not byte-deterministic")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("prof trace does not parse: %v", err)
	}
	lanes := map[string]bool{}
	names := map[string]bool{}
	var windows int
	for _, ev := range doc.TraceEvents {
		names[ev["name"].(string)] = true
		ph := ev["ph"].(string)
		if ph != "X" && ph != "M" {
			t.Fatalf("phase %q outside the X/M contract: %v", ph, ev)
		}
		if ev["pid"].(float64) != 2 {
			t.Fatalf("event outside the recorder's pid: %v", ev)
		}
		args, _ := ev["args"].(map[string]any)
		switch {
		case ph == "M":
			lanes[args["name"].(string)] = true
		case ev["cat"] == "window":
			windows++
			if _, ok := args["binder"]; !ok {
				t.Fatalf("window span without binder: %v", ev)
			}
		}
	}
	if !lanes["lp:ingress"] || !lanes["lp:servers-0-3"] {
		t.Fatalf("recorder lanes missing: %v", lanes)
	}
	if windows != 3 {
		t.Fatalf("windows=%d, want 3", windows)
	}
	// Binder names distinguish peers from the sentinels.
	for _, want := range []string{"win:round", "win:ingress", "win:self"} {
		if !names[want] {
			t.Fatalf("prof trace missing %q event:\n%s", want, out)
		}
	}
}
