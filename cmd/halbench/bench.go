package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"halsim/internal/experiments"
	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
)

// benchResult is one measurement row of the BENCH_*.json snapshot.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchSnapshot is the machine-readable artifact the CI bench job uploads;
// diffing two snapshots is the regression check for the hot path.
type benchSnapshot struct {
	Timestamp string `json:"timestamp"`
	Quick     bool   `json:"quick"`
	Seed      int64  `json:"seed"`
	// Repeat is how many times each benchmark was measured; every result
	// row is the fastest of those runs (absent in pre-min-of-N snapshots).
	Repeat    int    `json:"repeat,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// Execution-environment metadata: snapshots taken on different machines
	// or engine modes measure different things, so the -baseline gate
	// refuses to compare them silently. GoMaxProcs is the effective
	// parallelism (container quotas included); Shards and Engine say which
	// simulation engine ran ("serial" for 0/1 shards, "parallel" above).
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// NumCPU is the machine's logical CPU count, recorded so a snapshot
	// taken with an inflated GOMAXPROCS on a starved quota (say 4 on a
	// 1-CPU container) is honest about what actually ran concurrently.
	NumCPU  int           `json:"numcpu,omitempty"`
	Shards  int           `json:"shards,omitempty"`
	Engine  string        `json:"engine,omitempty"`
	Results []benchResult `json:"results"`
}

// engineLabel names the engine a shard count selects.
func engineLabel(shards int) string {
	if shards > 1 {
		return "parallel"
	}
	return "serial"
}

// namedBench is one sentinel: a display/snapshot name and its body.
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// measureBest runs one benchmark repeat times under testing.Benchmark and
// returns the fastest row: min-of-N is the standard noise floor for a
// shared CI machine, so the -baseline gate compares best-case against
// best-case instead of failing on scheduler jitter.
func measureBest(nb namedBench, repeat int) (benchResult, error) {
	var best benchResult
	for rep := 0; rep < repeat; rep++ {
		r := testing.Benchmark(nb.fn)
		if r.N == 0 {
			return best, fmt.Errorf("bench %s: benchmark failed", nb.name)
		}
		br := benchResult{
			Name:        nb.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if rep == 0 || br.NsPerOp < best.NsPerOp {
			best = br
		}
	}
	return best, nil
}

// runBenchSuite measures the serial regression-sentinel benchmarks (the
// three ModeNAT80G modes and the Table V matrix, mirroring bench_test.go)
// with testing.Benchmark and writes a JSON snapshot next to the ASCII
// summary.
// Each benchmark is measured repeat times and the snapshot keeps the
// fastest ns/op (and that run's B/op and allocs/op). quick shrinks
// simulated durations so a CI run finishes in seconds. With a baseline
// snapshot the run also prints per-benchmark deltas and fails on a
// regression beyond tol (the -baseline-tolerance flag, as a fraction).
func runBenchSuite(opt experiments.Options, quick bool, repeat int, tol float64, outPath, baselinePath string) error {
	if repeat < 1 {
		repeat = 1
	}
	runDur := 20 * sim.Millisecond
	t5 := opt
	t5.Duration, t5.TraceDuration = 20*sim.Millisecond, 40*sim.Millisecond
	if quick {
		runDur = 5 * sim.Millisecond
		t5.Duration, t5.TraceDuration = 5*sim.Millisecond, 10*sim.Millisecond
	}

	modeBench := func(mode server.Mode) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := server.Run(
					server.Config{Mode: mode, Fn: nf.NAT, Seed: opt.Seed},
					server.RunConfig{Duration: runDur, RateGbps: 80})
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed == 0 {
					b.Fatal("no packets completed")
				}
			}
		}
	}
	table5Bench := func(o experiments.Options) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := experiments.Table5(o)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		}
	}
	benches := []namedBench{
		{"ModeNAT80G/SNIC", modeBench(server.SNICOnly)},
		{"ModeNAT80G/Host", modeBench(server.HostOnly)},
		{"ModeNAT80G/HAL", modeBench(server.HAL)},
		{"Table5", table5Bench(t5)},
	}

	snap := benchSnapshot{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Quick:      quick,
		Seed:       opt.Seed,
		Repeat:     repeat,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Engine:     "serial",
	}
	for _, nb := range benches {
		best, err := measureBest(nb, repeat)
		if err != nil {
			return err
		}
		snap.Results = append(snap.Results, best)
		fmt.Printf("%-18s %6d iter  %14.0f ns/op  %12d B/op  %10d allocs/op  (min of %d)\n",
			best.Name, best.Iterations, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp, repeat)
	}

	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("20060102T150405Z"))
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)

	if baselinePath != "" {
		return compareBaseline(snap, baselinePath, tol)
	}
	return nil
}

// compareBaseline diffs the fresh snapshot against a stored one: one line
// per shared benchmark with the ns/op and allocs/op deltas, then an error
// if any ns/op grew beyond tol (the -baseline-tolerance flag, as a
// fraction). Allocation growth on the pinned-zero benchmarks is always a
// failure — the zero-alloc hot path is a correctness property here, not a
// performance preference — and the cluster suite's /shardsN rows
// additionally gate allocs/op growth beyond tol, so the pooled cross-LP
// path can't silently regress behind wall-clock noise.
func compareBaseline(cur benchSnapshot, baselinePath string, tol float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	var base benchSnapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("-baseline %s: %w", baselinePath, err)
	}
	if base.Quick != cur.Quick {
		fmt.Printf("note: baseline quick=%v, this run quick=%v — deltas are indicative only\n",
			base.Quick, cur.Quick)
	}
	// Engine-mode mismatch: a serial baseline against a parallel run (or
	// different shard counts) compares two different execution strategies,
	// so the regression thresholds are meaningless — a /shardsN row diffed
	// against a serial measurement of the same sentinel "regresses" by the
	// coordination overhead, and a serial row vanishing behind a parallel
	// baseline hides real regressions. That used to be a warning; it is now
	// a hard failure, because a warning scrolled past in CI output is a
	// silent comparison. Cross-engine speedup lives inside ONE snapshot
	// (the serial sentinels next to the /shardsN rows), never across two.
	// Old snapshots predate the engine field; treat absence as serial.
	baseEngine, curEngine := base.Engine, cur.Engine
	if baseEngine == "" {
		baseEngine = engineLabel(base.Shards)
	}
	if curEngine == "" {
		curEngine = engineLabel(cur.Shards)
	}
	if baseEngine != curEngine || base.Shards != cur.Shards {
		return fmt.Errorf("-baseline %s: engine mode mismatch — baseline %s (shards=%d), this run %s (shards=%d); rerun with matching -shards (cross-engine speedup is read off the /shardsN rows inside one snapshot, not by diffing snapshots)",
			baselinePath, baseEngine, base.Shards, curEngine, cur.Shards)
	}
	// GOMAXPROCS is part of what a parallel measurement measures: the same
	// binary on the same machine is a different experiment at 1 proc than
	// at 4. For parallel snapshots a mismatch fails; serial rows are
	// single-threaded, so there it stays an advisory note.
	if base.GoMaxProcs != 0 && base.GoMaxProcs != cur.GoMaxProcs {
		if curEngine == "parallel" {
			return fmt.Errorf("-baseline %s: GOMAXPROCS mismatch — baseline %d, this run %d; parallel rows measure scheduling capacity, rerun with GOMAXPROCS=%d or record a new baseline",
				baselinePath, base.GoMaxProcs, cur.GoMaxProcs, base.GoMaxProcs)
		}
		fmt.Printf("note: baseline GOMAXPROCS=%d, this run GOMAXPROCS=%d\n",
			base.GoMaxProcs, cur.GoMaxProcs)
	}
	baseBy := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}

	var regressed []string
	fmt.Printf("vs %s:\n", baselinePath)
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok {
			fmt.Printf("%-18s (new — no baseline entry)\n", r.Name)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		mark := ""
		if delta > tol {
			mark = "  <-- REGRESSION"
			regressed = append(regressed, fmt.Sprintf("%s ns/op %+.1f%%", r.Name, delta*100))
		}
		allocNote := ""
		if r.AllocsPerOp != b.AllocsPerOp {
			allocNote = fmt.Sprintf("  allocs %d -> %d", b.AllocsPerOp, r.AllocsPerOp)
			switch {
			case b.AllocsPerOp == 0 && r.AllocsPerOp > 0:
				regressed = append(regressed, fmt.Sprintf("%s allocs/op 0 -> %d", r.Name, r.AllocsPerOp))
				mark = "  <-- REGRESSION"
			case strings.Contains(r.Name, "/shards") && float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol):
				// Sharded rows gate allocation growth too, at the same
				// tolerance as ns/op: the cross-LP path is pooled, so a
				// sharded row's allocs/op is a budget — when it balloons,
				// something stopped reusing (outbox slabs, plan buffers,
				// payload banking), which wall time on a noisy runner can
				// hide.
				regressed = append(regressed, fmt.Sprintf("%s allocs/op %d -> %d (>%+.0f%%)",
					r.Name, b.AllocsPerOp, r.AllocsPerOp, tol*100))
				mark = "  <-- REGRESSION"
			}
		}
		fmt.Printf("%-18s %14.0f ns/op  %+7.1f%%%s%s\n", r.Name, r.NsPerOp, delta*100, allocNote, mark)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("benchmark regression over %s: %s",
			baselinePath, strings.Join(regressed, "; "))
	}
	fmt.Printf("no regression beyond %.0f%%\n", tol*100)
	return nil
}
