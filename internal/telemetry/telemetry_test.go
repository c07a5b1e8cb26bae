package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"halsim/internal/sim"
)

func TestConfigDefaultsAndEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if New(Config{}) != nil {
		t.Fatal("disabled config must build a nil collector")
	}
	c := Config{Timeline: true}.WithDefaults()
	if c.TimelinePeriod != DefaultTimelinePeriod {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.TraceEvery != 0 {
		t.Fatalf("tracing must stay off by default, got every=%d", c.TraceEvery)
	}
	col := New(Config{Timeline: true})
	if col == nil || col.Timeline == nil || col.Registry == nil {
		t.Fatal("timeline config must build timeline + registry")
	}
	if col.Tracer != nil {
		t.Fatal("tracer must stay nil when TraceEvery is 0")
	}
	col = New(Config{TraceEvery: 8})
	if col.Tracer == nil || col.Timeline != nil {
		t.Fatal("trace-only config must build only the tracer")
	}
	// A negative TraceEvery asks for nothing (runs reject it outright).
	if New(Config{TraceEvery: -3}) != nil {
		t.Fatal("negative TraceEvery must build no collector")
	}
}

func TestTimelineRingWrap(t *testing.T) {
	tl := NewTimeline(100*sim.Microsecond, 4)
	for i := 0; i < 6; i++ {
		tl.Push(Sample{T: sim.Time(i), FwdThGbps: float64(i)})
	}
	if tl.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tl.Len())
	}
	if tl.Truncated != 2 {
		t.Fatalf("Truncated = %d, want 2", tl.Truncated)
	}
	for i := 0; i < 4; i++ {
		if got := tl.At(i).T; got != sim.Time(i+2) {
			t.Fatalf("At(%d).T = %d, want %d (oldest-first order)", i, got, i+2)
		}
	}
}

func TestTimelineLatencyWindows(t *testing.T) {
	tl := NewTimeline(100*sim.Microsecond, 16)
	tl.RecordLatency(10_000)
	tl.RecordLatency(20_000)
	tl.Push(Sample{T: 1})
	if got := tl.At(0).P99WindowUs; got < 10 || got > 25 {
		t.Fatalf("window p99 = %v µs, want within [10, 25]", got)
	}
	// A window with no completions leaves P99WindowUs at zero and the run
	// distribution untouched.
	tl.Push(Sample{T: 2})
	if got := tl.At(1).P99WindowUs; got != 0 {
		t.Fatalf("empty window p99 = %v, want 0", got)
	}
	if got := tl.Latency().Count(); got != 2 {
		t.Fatalf("cumulative latency count = %d, want 2", got)
	}
}

func TestTimelineCSVDeterministic(t *testing.T) {
	build := func() *Timeline {
		tl := NewTimeline(100*sim.Microsecond, 8)
		tl.RecordLatency(12_345)
		tl.Push(Sample{T: 100_000, FwdThGbps: 12.5, RateRxGbps: 60, SNICOccMax: 3, Drops: 1, PowerW: 211.25})
		tl.Push(Sample{T: 200_000, FwdThGbps: 14.5, RateRxGbps: 61.5, Events: 42})
		return tl
	}
	var a, b bytes.Buffer
	if err := build().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical timelines must export identical CSV bytes")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	nCols := len(strings.Split(csvHeader, ","))
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != nCols {
			t.Fatalf("line %d has %d columns, want %d", i, got, nCols)
		}
	}
	if !strings.HasPrefix(lines[1], "100000,12.5,60,") {
		t.Fatalf("unexpected first row: %s", lines[1])
	}

	var j bytes.Buffer
	if err := build().WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PeriodNS  int64            `json:"period_ns"`
		Samples   []map[string]any `json:"samples"`
		Latency   []map[string]any `json:"latency_buckets"`
		Truncated uint64           `json:"truncated_samples"`
	}
	if err := json.Unmarshal(j.Bytes(), &doc); err != nil {
		t.Fatalf("timeline JSON does not parse: %v", err)
	}
	if doc.PeriodNS != 100_000 || len(doc.Samples) != 2 || len(doc.Latency) == 0 {
		t.Fatalf("unexpected JSON doc: period=%d samples=%d latency=%d",
			doc.PeriodNS, len(doc.Samples), len(doc.Latency))
	}
}

func TestTracerSamplingDeterministic(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Sampled(1) {
		t.Fatal("nil tracer must sample nothing")
	}
	tr := NewTracer(4, 100)
	want := map[uint64]bool{1: true, 5: true, 9: true}
	for id := uint64(1); id <= 10; id++ {
		if tr.Sampled(id) != want[id] {
			t.Fatalf("Sampled(%d) = %v, want %v", id, tr.Sampled(id), want[id])
		}
	}
	// every=1 traces every packet (including id 0, the modulus edge).
	all := NewTracer(1, 100)
	for id := uint64(0); id < 5; id++ {
		if !all.Sampled(id) {
			t.Fatalf("every=1 must sample id %d", id)
		}
	}
}

func TestTracerCapTruncation(t *testing.T) {
	tr := NewTracer(1, 2)
	for i := 0; i < 5; i++ {
		tr.Emit(Span{T: sim.Time(i), Kind: KindIngress, Pkt: uint64(i)})
	}
	if tr.Len() != 2 || tr.Truncated != 3 {
		t.Fatalf("len=%d truncated=%d, want 2 and 3", tr.Len(), tr.Truncated)
	}
	if tr.At(0).Pkt != 0 || tr.At(1).Pkt != 1 {
		t.Fatal("retained events must be the earliest emissions")
	}
}

// TestChromeTraceShape locks the export to the Chrome trace-event format
// shape Perfetto loads: a traceEvents array whose entries carry name, ph,
// ts, pid, and tid, with metadata events naming every lane.
func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(1, 100)
	tr.Emit(Span{T: 1000, Kind: KindIngress, Station: StWire, Core: -1, Pkt: 1, Arg: 1500})
	tr.Emit(Span{T: 1500, Kind: KindDivert, Station: StHLB, Core: -1, Pkt: 1})
	tr.Emit(Span{T: 2000, Dur: 750, Kind: KindServe, Station: StSNIC, Core: 3, Pkt: 1, Arg: 1500})
	tr.Emit(Span{T: 2750, Kind: KindDrop, Station: StHost, Core: 2, Pkt: 2, Arg: int64(DropRingFull)})

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if doc.Unit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	if len(doc.TraceEvents) != int(numStations)+4 {
		t.Fatalf("traceEvents has %d entries, want %d metadata + 4 spans",
			len(doc.TraceEvents), numStations)
	}
	meta, spans := 0, 0
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
			spans++
		case "i":
			spans++
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != int(numStations) || spans != 4 {
		t.Fatalf("meta=%d spans=%d", meta, spans)
	}
	// The drop event carries its reason; the serve span its core.
	s := buf.String()
	if !strings.Contains(s, `"reason":"ring-full"`) {
		t.Fatal("drop reason missing from export")
	}
	if !strings.Contains(s, `"core":3`) {
		t.Fatal("serve core missing from export")
	}
	// Determinism: a second identical tracer exports identical bytes.
	tr2 := NewTracer(1, 100)
	tr2.Emit(Span{T: 1000, Kind: KindIngress, Station: StWire, Core: -1, Pkt: 1, Arg: 1500})
	tr2.Emit(Span{T: 1500, Kind: KindDivert, Station: StHLB, Core: -1, Pkt: 1})
	tr2.Emit(Span{T: 2000, Dur: 750, Kind: KindServe, Station: StSNIC, Core: 3, Pkt: 1, Arg: 1500})
	tr2.Emit(Span{T: 2750, Kind: KindDrop, Station: StHost, Core: 2, Pkt: 2, Arg: int64(DropRingFull)})
	var buf2 bytes.Buffer
	if err := tr2.WriteTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("identical tracers must export identical bytes")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("halsim_packets_total", "packets offered")
	g := r.Gauge("halsim_fwd_th_gbps", "LBP threshold")
	if again := r.Counter("halsim_packets_total", ""); again != c {
		t.Fatal("re-registering a name must return the existing handle")
	}
	r.Add(c, 41)
	r.Add(c, 1)
	r.Set(g, 12.5)
	if r.Value(c) != 42 || r.Value(g) != 12.5 {
		t.Fatalf("values: %v, %v", r.Value(c), r.Value(g))
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP halsim_packets_total packets offered",
		"# TYPE halsim_packets_total counter",
		"halsim_packets_total 42",
		"# TYPE halsim_fwd_th_gbps gauge",
		"halsim_fwd_th_gbps 12.5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryHTTP(t *testing.T) {
	r := NewRegistry()
	r.Set(r.Gauge("halsim_power_w", ""), 200)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(buf.String(), "halsim_power_w 200") {
		t.Fatalf("metrics endpoint body:\n%s", buf.String())
	}
}
