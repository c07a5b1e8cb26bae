package halsim_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"halsim"
)

// counterAllocsTolerance is how far allocs/op may move, either way, from
// testdata/counters.txt before TestCounters fails. Allocation counts wobble
// by a few allocations between runs (goroutine and map growth timing, and
// the runtime's own background allocations, which allocsOf filters out); a
// leak or a lost pool moves them by far more.
const counterAllocsTolerance = 0.01

// counterRow is one simulation of the counter fixture.
type counterRow struct {
	name string
	cfg  halsim.Config
	rc   halsim.RunConfig
}

// counterRows are the runs TestCounters pins, all at seed 1: the
// single-server sentinels, a 64-server p2c fleet serial and sharded, and a
// short 1024-server podded fleet on three LPs.
func counterRows() []counterRow {
	nat80 := halsim.RunConfig{Duration: 5 * halsim.Millisecond, RateGbps: 80}
	fleet64 := func(shards int) halsim.Config {
		return halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 1, Shards: shards,
			Cluster: &halsim.ClusterConfig{Servers: 64, Dispatch: "p2c"}}
	}
	return []counterRow{
		{"ModeNAT80G/SNIC", halsim.Config{Mode: halsim.SNICOnly, Fn: halsim.NAT, Seed: 1}, nat80},
		{"ModeNAT80G/Host", halsim.Config{Mode: halsim.HostOnly, Fn: halsim.NAT, Seed: 1}, nat80},
		{"ModeNAT80G/HAL", halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 1}, nat80},
		{"Fleet64/serial", fleet64(0), halsim.RunConfig{Duration: 2 * halsim.Millisecond, RateGbps: 400}},
		{"Fleet64/shards5", fleet64(5), halsim.RunConfig{Duration: 2 * halsim.Millisecond, RateGbps: 400}},
		{"Fleet1024/shards3", halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT, Seed: 1, Shards: 3,
			Cluster: &halsim.ClusterConfig{Servers: 1024, Dispatch: "p2c", Pods: 8, Oversub: 4}},
			halsim.RunConfig{Duration: 250 * halsim.Microsecond, RateGbps: 6400}},
	}
}

// modelCounters runs r once with the timeline on (and the flight recorder
// on sharded rows) and renders the counters the model's work is made of:
// packets, engine events, and for the parallel engine its rounds, windows,
// parks, cross-LP injections and timing-wheel slow paths. Every one is
// exact at a seed.
func modelCounters(t *testing.T, r counterRow) string {
	t.Helper()
	cfg := r.cfg
	cfg.Telemetry = halsim.TelemetryConfig{Timeline: true, Prof: cfg.Shards > 1}
	res, err := halsim.Run(cfg, r.rc)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	var events uint64
	for i := 0; i < res.Timeline.Len(); i++ {
		events += res.Timeline.At(i).Events
	}
	s := fmt.Sprintf("sent=%d completed=%d events=%d", res.Sent, res.Completed, events)
	rec := res.Prof
	if rec == nil {
		return s
	}
	var windows, parks, injects, msgs, splices, cascades uint64
	for i := 0; i < rec.NumLanes(); i++ {
		l := rec.LaneAt(i)
		windows += l.WindowCount
		parks += l.Parks
		injects += l.Injects
		msgs += l.InjectedMsgs
	}
	for _, wl := range rec.Wheels() {
		splices += wl.Stats.SpliceSteps
		cascades += wl.Stats.Cascades
	}
	return s + fmt.Sprintf(" rounds=%d windows=%d parks=%d injects=%d injected_msgs=%d splice_steps=%d cascades=%d",
		rec.Rounds, windows, parks, injects, msgs, splices, cascades)
}

// counterAllocCalls is how many calls allocsOf measures per row.
const counterAllocCalls = 3

// allocsOf counts the heap allocations of one call of f, as the fewest
// over counterAllocCalls calls. Mallocs counts every allocation, garbage
// included, so the model's own figure does not depend on GC timing and is
// the same on every call. But Mallocs is process-wide: a call that
// overlaps the runtime's background work after a GC cycle (the cleanup of
// unique's maps, mark-worker and timer bookkeeping, a new goroutine) reads
// up to a dozen more, enough to push the ~300-allocation single-server
// rows past 1%. That work only ever adds, so the minimum is the call's own
// count; a leak or a lost pool adds to every call and still shows.
func allocsOf(t *testing.T, name string, f func() error) uint64 {
	t.Helper()
	var fewest uint64
	for i := 0; i < counterAllocCalls; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := after.Mallocs - before.Mallocs; i == 0 || n < fewest {
			fewest = n
		}
	}
	return fewest
}

// counterLine is one fixture row: exact model counters (empty for
// allocation-only rows) and the allocations of a telemetry-off run.
type counterLine struct {
	model  string
	allocs uint64
}

func (c counterLine) String() string {
	if c.model == "" {
		return fmt.Sprintf("allocs=%d", c.allocs)
	}
	return fmt.Sprintf("%s allocs=%d", c.model, c.allocs)
}

// counterFixture is testdata/counters.txt: a "toolchain: goX.Y" line, then
// one "name: k=v ... allocs=N" line per row, in row order.
type counterFixture struct {
	toolchain string
	names     []string
	rows      map[string]counterLine
}

func parseCounters(data string) (counterFixture, error) {
	f := counterFixture{rows: map[string]counterLine{}}
	for _, l := range strings.Split(strings.TrimSpace(data), "\n") {
		name, rest, ok := strings.Cut(l, ": ")
		if !ok {
			return f, fmt.Errorf("malformed fixture line %q", l)
		}
		if name == "toolchain" {
			f.toolchain = rest
			continue
		}
		model, allocs, _ := strings.Cut(rest, "allocs=")
		n, err := strconv.ParseUint(allocs, 10, 64)
		if err != nil {
			return f, fmt.Errorf("fixture line %q: %v", l, err)
		}
		f.names = append(f.names, name)
		f.rows[name] = counterLine{model: strings.TrimSpace(model), allocs: n}
	}
	return f, nil
}

func (f counterFixture) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "toolchain: %s\n", f.toolchain)
	for _, name := range f.names {
		fmt.Fprintf(&b, "%s: %v\n", name, f.rows[name])
	}
	return b.String()
}

// toolchain names what allocation counts depend on besides the code: the
// Go release line ("go1.24"), since runtime and map internals change
// between releases, and the race detector, whose runtime allocates
// differently (" -race").
func toolchain() string {
	parts := strings.SplitN(runtime.Version(), ".", 3)
	tc := strings.Join(parts[:min(2, len(parts))], ".")
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				tc += " -race"
			}
		}
	}
	return tc
}

// allocsClose reports whether got is within counterAllocsTolerance of want.
func allocsClose(got, want uint64) bool {
	return math.Abs(float64(got)-float64(want)) <= counterAllocsTolerance*float64(want)
}

// TestCounters is the repository's regression guard for the cost of a
// run: it pins exact model counters (events, parallel rounds and windows,
// cross-LP messages, timing-wheel splice steps and cascades) and allocs/op
// within 1% either way for a fixed set of runs against
// testdata/counters.txt. Unlike wall time these do not depend on the host,
// so a change that makes the model do more work fails here on any
// machine. Allocs/op are compared under the toolchain that recorded them
// and only logged under another release or the race detector. -update rewrites the
// fixture; an allocs/op figure still within tolerance keeps its recorded
// value, so regenerating an unchanged tree leaves the file as it was.
// Wall-clock cost is measured parent against change on one machine by the
// benchmark under bench/.
func TestCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the counter fixture in -short mode: CI's race pass runs -race -short, and the race runtime changes allocation counts")
	}
	got := counterFixture{toolchain: toolchain(), rows: map[string]counterLine{}}
	for _, r := range counterRows() {
		model := modelCounters(t, r)
		allocs := allocsOf(t, r.name, func() error {
			_, err := halsim.Run(r.cfg, r.rc)
			return err
		})
		got.names = append(got.names, r.name)
		got.rows[r.name] = counterLine{model: model, allocs: allocs}
	}
	// Quick Table V has no engine counters to read through the experiment
	// driver; its allocations cover 90 trace-driven runs. The first call
	// in a process also allocates the driver's worker goroutines and
	// runtime structures (~2-3% more), so the measured calls follow a
	// warm-up call, as every row above is measured after its counter run.
	const tab5 = "Table5/quick"
	table5 := func() error {
		_, err := halsim.Table5(halsim.ExperimentOptions{
			Duration: 5 * halsim.Millisecond, TraceDuration: 10 * halsim.Millisecond, Seed: 1})
		return err
	}
	if err := table5(); err != nil {
		t.Fatalf("%s: %v", tab5, err)
	}
	got.names = append(got.names, tab5)
	got.rows[tab5] = counterLine{allocs: allocsOf(t, tab5, table5)}

	path := filepath.Join("testdata", "counters.txt")
	data, err := os.ReadFile(path)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatalf("missing counter fixture (run with -update to create): %v", err)
	}
	want, err := parseCounters(string(data))
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	sameToolchain := want.toolchain == got.toolchain

	if *updateGolden {
		for name, c := range got.rows {
			if old, ok := want.rows[name]; ok && sameToolchain && allocsClose(c.allocs, old.allocs) {
				c.allocs = old.allocs
				got.rows[name] = c
			}
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if strings.Join(want.names, ",") != strings.Join(got.names, ",") {
		t.Fatalf("fixture rows %v, test rows %v (run with -update)", want.names, got.names)
	}
	if !sameToolchain {
		t.Logf("allocs/op recorded with %s, running %s: comparing model counters only", want.toolchain, got.toolchain)
	}
	for _, name := range got.names {
		g, w := got.rows[name], want.rows[name]
		if g.model != w.model {
			t.Errorf("%s: model counters changed\n got  %s\n want %s", name, g.model, w.model)
		}
		delta := 100 * (float64(g.allocs) - float64(w.allocs)) / float64(w.allocs)
		switch {
		case !sameToolchain:
			t.Logf("%s: allocs/op %d, fixture %d (%+.2f%%)", name, g.allocs, w.allocs, delta)
		case !allocsClose(g.allocs, w.allocs):
			t.Errorf("%s: allocs/op %d, fixture %d (%+.2f%%, tolerance ±%.0f%%)",
				name, g.allocs, w.allocs, delta, 100*counterAllocsTolerance)
		}
	}
}
