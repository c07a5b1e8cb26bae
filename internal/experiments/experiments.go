// Package experiments contains one driver per table and figure of the
// paper's evaluation (§III, §IV, §VII, §VIII). Each driver runs the
// simulator at calibrated operating points and returns a typed result that
// renders as an ASCII table shaped like the original artifact, so
// `halbench` regenerates the paper's rows/series.
package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"halsim/internal/sim"
)

// Options controls experiment fidelity. Defaults favour accuracy; the
// benchmarks shrink durations for quick regression signal.
type Options struct {
	// Duration is the simulated time per constant-rate measurement
	// point (default 300 ms).
	Duration sim.Time
	// TraceDuration is the simulated time per datacenter-trace run
	// (default 600 ms).
	TraceDuration sim.Time
	// Seed makes every run deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = 300 * sim.Millisecond
	}
	if o.TraceDuration == 0 {
		o.TraceDuration = 600 * sim.Millisecond
	}
	return o
}

// Table is a rendered experiment artifact.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table with aligned columns.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// parWorkers is the experiment fan-out width: the HAL_PARALLELISM
// environment variable when set to a positive integer, else the effective
// GOMAXPROCS. GOMAXPROCS(0) — unlike runtime.NumCPU — respects container
// CPU quotas and an explicit GOMAXPROCS override, so a quota-limited CI
// job no longer oversubscribes its slice with one goroutine per physical
// core. HAL_PARALLELISM=1 forces sequential driver execution (handy when
// profiling a single run).
func parWorkers() int {
	if s := os.Getenv("HAL_PARALLELISM"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// parMap runs f(0..n-1) with bounded parallelism (parWorkers wide) and
// returns the lowest-index error. Simulation runs are independent and
// internally deterministic, so fanning them out changes wall time only —
// including the error: indices are claimed in increasing order and every
// claimed index below a failing one runs to completion, so the lowest
// erroring index is always claimed, always observed, and always the one
// returned, no matter how goroutines interleave. Once any call fails,
// workers stop claiming new indices instead of draining the remaining work.
func parMap(n int, f func(i int) error) error {
	workers := parWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = n
		errVal error
		next   int64 = -1
		failed atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, errVal = i, err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errVal
}

// CSV renders the table as comma-separated values (headers first). Cells
// containing commas or quotes are quoted per RFC 4180.
func (t Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
