package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/compiled.txt")

// keysSLBDoc sets every run key the other golden documents leave at its
// default, on the software balancer, with host-side faults and a drain
// override.
const keysSLBDoc = `
name: keys-slb
run:
  mode: SLB
  fn: kvs
  fn_config: large
  pipeline: Count
  rate_gbps: 30
  duration: 5ms
  warmup: 1ms
  seed: 9
  cxl: true
  slb_cores: 3
  slb_fwd_th_gbps: 25
  functional: true
  drain: false
  rate_window: 250us
  telemetry:
    timeline: true
    timeline_period: 50us
    trace_every: 16
events:
  - at: 1ms
    for: 1ms
    kind: core-crash
    side: host
    cores: 3
  - at: 2500us
    for: 10ms
    kind: rx-drop
    side: host
    drop_prob: 0.3
  - at: 3ms
    for: 500us
    kind: telemetry-blackout
assertions:
  - metric: avg_power_w
    op: "<="
    value: 500
    phase: 1
`

// keysTraceDoc is a trace-driven run whose windowed assertion turns the
// timeline on, on a mode that keeps its SLB defaults.
const keysTraceDoc = `
name: keys-trace
run:
  mode: slb-host
  fn: Count
  workload: Hadoop
  duration: 6ms
  pipeline: ""
  telemetry:
    prof: true
assertions:
  - metric: host_busy
    op: ">="
    value: 0
    during: 1ms..2ms
`

// keysFleetDoc is a sharded, profiled fleet whose blackout reaches past
// the end of the run.
const keysFleetDoc = `
name: keys-fleet
run:
  fn: NAT
  rate_gbps: 120
  duration: 3ms
  shards: 3
  telemetry:
    prof: true
  cluster:
    servers: 6
    dispatch: LEAST-CONN
    pods: 3
    oversub: 1.5
events:
  - at: 2ms
    for: 5ms
    kind: server-crash
    server: 4
`

// TestCompileGolden pins the lowering: every input a compiled scenario
// hands the run (Cfg, RC, the fault plan's windows),
// rendered field by field with pointers followed, for each shipped
// example and the documents above. -update rewrites the fixture.
func TestCompileGolden(t *testing.T) {
	type doc struct{ name, text string }
	docs := []doc{
		{"fullDoc", fullDoc}, {"chaosDoc", chaosDoc}, {"clusterDoc", clusterDoc}, {"podDoc", podDoc},
		{"keysSLBDoc", keysSLBDoc}, {"keysTraceDoc", keysTraceDoc}, {"keysFleetDoc", keysFleetDoc},
	}
	files, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc{filepath.Base(f), string(data)})
	}
	var b strings.Builder
	for _, d := range docs {
		s, err := Parse([]byte(d.text))
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		c, err := s.Compile(Overrides{})
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		fmt.Fprintf(&b, "== %s\n", d.name)
		fmt.Fprintf(&b, "Seed=%d\nShards=%d\n", c.Seed, c.Shards)
		renderValue(&b, "Cfg", reflect.ValueOf(c.Cfg))
		renderValue(&b, "RC", reflect.ValueOf(c.RC))
	}
	got := b.String()
	const path = "testdata/compiled.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got %q\nwant %q", path, i+1, g, w)
			}
		}
	}
}

// renderValue writes one "path=value" line per scalar reachable from v,
// following pointers ("nil" when unset) and sorting map keys.
func renderValue(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(b, "%s=nil\n", path)
			return
		}
		renderValue(b, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			renderValue(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			fmt.Fprintf(b, "%s=nil\n", path)
			return
		}
		fmt.Fprintf(b, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			renderValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		fmt.Fprintf(b, "%s.len=%d\n", path, v.Len())
		for _, k := range keys {
			renderValue(b, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
	case reflect.Bool:
		fmt.Fprintf(b, "%s=%t\n", path, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(b, "%s=%d\n", path, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s=%s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		fmt.Fprintf(b, "%s=%q\n", path, v.String())
	default:
		fmt.Fprintf(b, "%s=<%v>\n", path, v.Kind())
	}
}
