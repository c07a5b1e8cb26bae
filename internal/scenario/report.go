package scenario

import (
	"fmt"
	"html"
	"io"
	"strings"

	"halsim/internal/cxl"
	"halsim/internal/fault"
	"halsim/internal/sim"
)

// The per-run report. Both renderers draw from the same row model so the
// Markdown and HTML variants never drift, and neither includes wall-clock
// state or the engine label — the report for a given scenario and seed is
// byte-identical across runs and across the serial/parallel engines.

// reportSection is one titled block of label/value rows or a table.
type reportSection struct {
	Title  string
	Rows   [][2]string // label: value pairs (Rows or Table, not both)
	Header []string
	Table  [][]string
}

// buildSections assembles the report content shared by both renderers.
func (o *Outcome) buildSections() []reportSection {
	s, comp, res := o.Scenario, o.Compiled, o.Result
	var secs []reportSection

	// Run configuration echo.
	c, r := comp.Cfg, comp.RC
	cfg := reportSection{Title: "Run"}
	add := func(k, v string) { cfg.Rows = append(cfg.Rows, [2]string{k, v}) }
	add("mode", strings.ToLower(c.Mode.String()))
	add("fn", c.Fn.String())
	if c.FnConfig != "" {
		add("fn_config", c.FnConfig)
	}
	if c.PipelineOn {
		add("pipeline", c.Pipeline.String())
	}
	if r.Workload != nil {
		add("workload", r.Workload.String())
	} else {
		add("rate", fmt.Sprintf("%g Gbps", r.RateGbps))
	}
	add("duration", r.Duration.String())
	if r.Warmup > 0 {
		add("warmup", r.Warmup.String())
	}
	// Seed is part of the scenario's identity; the shard count and engine
	// choice are not — results are byte-identical across engines, and the
	// report must be too.
	add("seed", fmt.Sprintf("%d", comp.Seed))
	if c.Fabric == cxl.CXL {
		add("cxl", "true")
	}
	if r.Drain {
		add("drain", "true")
	}
	if c.Cluster != nil {
		// Compile has checked the fleet config, so the defaults apply.
		cl, _ := c.Cluster.WithDefaults()
		add("servers", fmt.Sprintf("%d", cl.Servers))
		add("dispatch", cl.Dispatch)
		add("wire", cl.WireNS.String())
		add("link_gbps", fmt.Sprintf("%g", cl.LinkGbps))
		if cl.Pods >= 2 {
			add("pods", fmt.Sprintf("%d", cl.Pods))
			add("oversub", fmt.Sprintf("%g", cl.Oversub))
			add("spine_wire", cl.SpineWireNS.String())
		}
	}
	secs = append(secs, cfg)

	// Fault timeline: every window, explicit and chaotic alike, in firing
	// order.
	if ws := comp.Windows(); len(ws) > 0 {
		ft := reportSection{
			Title:  "Fault timeline",
			Header: []string{"start", "end", "fault"},
		}
		for _, w := range ws {
			d := w.String()
			if c.Cluster != nil && w.Kind != fault.ServerCrash {
				d = fmt.Sprintf("server %d: %s", w.Server, d) // the target of a fleet's window
			}
			ft.Table = append(ft.Table, []string{w.From.String(), w.To.String(), d})
		}
		secs = append(secs, ft)
		if s.Chaos != nil {
			secs = append(secs, reportSection{
				Title: "Chaos",
				Rows:  [][2]string{{"generator", s.Chaos.describe(comp.Seed, r.Duration)}},
			})
		}
	}

	// Assertions: the report's centerpiece — every check with its observed
	// value, pass/fail verdict, and failure detail.
	if len(o.Checks) > 0 {
		at := reportSection{
			Title:  "Assertions",
			Header: []string{"assertion", "observed", "result", "detail"},
		}
		for _, c := range o.Checks {
			verdict := "PASS"
			if !c.Pass {
				verdict = "FAIL"
			}
			at.Table = append(at.Table, []string{c.Assertion.String(), c.ObservedText, verdict, c.Detail})
		}
		secs = append(secs, at)
	}

	// Headline results.
	rs := reportSection{Title: "Results"}
	radd := func(k, v string) { rs.Rows = append(rs.Rows, [2]string{k, v}) }
	radd("offered", fmt.Sprintf("%.2f Gbps", res.OfferedGbps))
	radd("delivered", fmt.Sprintf("%.2f Gbps avg, %.2f Gbps max", res.AvgGbps, res.MaxGbps))
	radd("latency", fmt.Sprintf("p50 %.2f µs, p99 %.2f µs, p99.9 %.2f µs", res.P50us, res.P99us, res.P999us))
	radd("power", fmt.Sprintf("%.2f W avg, %.3f Gbps/W", res.AvgPowerW, res.EffGbpsPerW))
	radd("drops", fmt.Sprintf("%.4f of offered", res.DropFraction))
	radd("snic share", fmt.Sprintf("%.3f", res.SNICShare))
	radd("ledger", fmt.Sprintf("%d sent = %d completed + %d dropped + %d in flight",
		res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd))
	// The fault rows read one server's injector and LBP. A fleet's
	// counters sum servers that each saw a different schedule, so its
	// report leaves them to assertions (fault_events, core_crashes).
	if c.Faults != nil && c.Cluster == nil {
		radd("fault events", fmt.Sprintf("%d injected, %d fault drops, %d requeued, %d core crashes, %d lbp holds",
			res.FaultEvents, res.FaultDrops, res.Requeued, res.CoreCrashes, res.LBPHolds))
		if res.FailoverTicks >= 0 {
			radd("failover", fmt.Sprintf("%d LBP ticks", res.FailoverTicks))
		}
		if ns, ok, _ := recoveryTime(comp, res); ok {
			radd("recovery", sim.Time(ns).String()+" after last fault cleared")
		}
	}
	secs = append(secs, rs)

	// Phases (before | during | after the fault span).
	if len(res.Phases) > 0 {
		names := []string{"before", "during", "after"}
		pt := reportSection{
			Title:  "Phases",
			Header: []string{"phase", "span", "avg Gbps", "p99 µs", "avg W", "Gbps/W", "completed"},
		}
		for i, p := range res.Phases {
			name := fmt.Sprintf("%d", i)
			if i < len(names) {
				name = names[i]
			}
			pt.Table = append(pt.Table, []string{
				name,
				fmt.Sprintf("%v..%v", p.Start, p.End),
				fmt.Sprintf("%.2f", p.AvgGbps),
				fmt.Sprintf("%.2f", p.P99us),
				fmt.Sprintf("%.2f", p.AvgPowerW),
				fmt.Sprintf("%.3f", p.EffGbpsPerW),
				fmt.Sprintf("%d", p.Completed),
			})
		}
		secs = append(secs, pt)
	}

	// Delivered-rate series: the recovery signal, window by window.
	if len(res.RateSeries) > 0 && res.RateWindow > 0 {
		rt := reportSection{
			Title:  "Delivered rate",
			Header: []string{"window", "Gbps", ""},
		}
		peak := 0.0
		for _, v := range res.RateSeries {
			if v > peak {
				peak = v
			}
		}
		for i, v := range res.RateSeries {
			from := sim.Time(int64(i) * int64(res.RateWindow))
			bar := ""
			if peak > 0 {
				bar = strings.Repeat("█", int(v/peak*30+0.5))
			}
			rt.Table = append(rt.Table, []string{from.String(), fmt.Sprintf("%.2f", v), bar})
		}
		secs = append(secs, rt)
	}

	// Parallel profile: the flight recorder's view of where the parallel
	// engine's time went. Present only when the run asked for it and the
	// parallel engine executed, so the unprofiled report stays byte-identical
	// across engines; with the recorder on, every value here is deterministic
	// per shard count (wall-clock fields never appear).
	if rec := res.Prof; rec != nil {
		pp := reportSection{Title: "Parallel profile"}
		padd := func(k, v string) { pp.Rows = append(pp.Rows, [2]string{k, v}) }
		padd("rounds", fmt.Sprintf("%d", rec.Rounds))
		if e, ok := rec.BindingLink(); ok {
			padd("binding link", fmt.Sprintf("%s→%s (%d windows, %.1f%% of paced)",
				e.SrcName, e.DstName, e.Windows, e.Share*100))
		} else {
			padd("binding link", "none (no window was peer-bound)")
		}
		var wheel []string
		for _, wl := range rec.Wheels() {
			wheel = append(wheel, fmt.Sprintf("%s %d cascades/%d overflow/%d slab",
				wl.Name, wl.Stats.Cascades, wl.Stats.Overflow, wl.Stats.SlabHighWater))
		}
		if len(wheel) > 0 {
			padd("wheels", strings.Join(wheel, ", "))
		}
		secs = append(secs, pp)

		lt := reportSection{
			Title:  "Parallel profile — LP lanes",
			Header: []string{"lp", "windows", "paced", "parks", "batches", "msgs", "max batch"},
		}
		for i := 0; i < rec.NumLanes(); i++ {
			l := rec.LaneAt(i)
			lt.Table = append(lt.Table, []string{
				l.Name(),
				fmt.Sprintf("%d", l.WindowCount),
				fmt.Sprintf("%.1f%%", rec.PacedShare(i)*100),
				fmt.Sprintf("%d", l.Parks),
				fmt.Sprintf("%d", l.Injects),
				fmt.Sprintf("%d", l.InjectedMsgs),
				fmt.Sprintf("%d", l.MaxBatch),
			})
		}
		secs = append(secs, lt)

		if edges := rec.TopStallEdges(); len(edges) > 0 {
			st := reportSection{
				Title:  "Parallel profile — stall attribution",
				Header: []string{"edge", "windows", "share"},
			}
			for _, e := range edges {
				st.Table = append(st.Table, []string{
					e.SrcName + "→" + e.DstName,
					fmt.Sprintf("%d", e.Windows),
					fmt.Sprintf("%.1f%%", e.Share*100),
				})
			}
			secs = append(secs, st)
		}
	}
	return secs
}

// statusLine summarizes the verdict for the report header.
func (o *Outcome) statusLine() string {
	if len(o.Checks) == 0 {
		return "no assertions"
	}
	passed := 0
	for _, c := range o.Checks {
		if c.Pass {
			passed++
		}
	}
	verdict := "PASS"
	if !o.Passed {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s — %d/%d assertions held", verdict, passed, len(o.Checks))
}

// WriteMarkdown renders the run report as Markdown.
func (o *Outcome) WriteMarkdown(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("# Scenario: %s\n\n", o.Scenario.Name)
	if o.Scenario.Description != "" {
		bw.printf("%s\n\n", o.Scenario.Description)
	}
	bw.printf("**%s**\n", o.statusLine())
	for _, sec := range o.buildSections() {
		bw.printf("\n## %s\n\n", sec.Title)
		if len(sec.Header) > 0 {
			bw.printf("| %s |\n", strings.Join(sec.Header, " | "))
			dashes := make([]string, len(sec.Header))
			for i := range dashes {
				dashes[i] = "---"
			}
			bw.printf("| %s |\n", strings.Join(dashes, " | "))
			for _, row := range sec.Table {
				bw.printf("| %s |\n", strings.Join(row, " | "))
			}
		} else {
			for _, kv := range sec.Rows {
				bw.printf("- **%s**: %s\n", kv[0], kv[1])
			}
		}
	}
	return bw.err
}

// WriteHTML renders the run report as a standalone HTML page.
func (o *Outcome) WriteHTML(w io.Writer) error {
	bw := &errWriter{w: w}
	name := html.EscapeString(o.Scenario.Name)
	bw.printf(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Scenario: %s</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; color: #1b1b1b; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: left; font-size: 0.9rem; }
th { background: #f2f2f2; }
.pass { color: #0a7d33; font-weight: 600; }
.fail { color: #b01818; font-weight: 600; }
.bar { color: #4878a8; font-family: monospace; }
dt { font-weight: 600; float: left; clear: left; min-width: 9rem; }
dd { margin-left: 10rem; }
</style></head><body>
`, name)
	bw.printf("<h1>Scenario: %s</h1>\n", name)
	if o.Scenario.Description != "" {
		bw.printf("<p>%s</p>\n", html.EscapeString(o.Scenario.Description))
	}
	cls := "pass"
	if !o.Passed && len(o.Checks) > 0 {
		cls = "fail"
	}
	bw.printf("<p class=%q>%s</p>\n", cls, html.EscapeString(o.statusLine()))
	for _, sec := range o.buildSections() {
		bw.printf("<h2>%s</h2>\n", html.EscapeString(sec.Title))
		if len(sec.Header) > 0 {
			bw.printf("<table><tr>")
			for _, h := range sec.Header {
				bw.printf("<th>%s</th>", html.EscapeString(h))
			}
			bw.printf("</tr>\n")
			for _, row := range sec.Table {
				bw.printf("<tr>")
				for _, cell := range row {
					esc := html.EscapeString(cell)
					switch {
					case cell == "PASS":
						bw.printf("<td class=\"pass\">%s</td>", esc)
					case cell == "FAIL":
						bw.printf("<td class=\"fail\">%s</td>", esc)
					case strings.HasPrefix(cell, "█"):
						bw.printf("<td class=\"bar\">%s</td>", esc)
					default:
						bw.printf("<td>%s</td>", esc)
					}
				}
				bw.printf("</tr>\n")
			}
			bw.printf("</table>\n")
		} else {
			bw.printf("<dl>\n")
			for _, kv := range sec.Rows {
				bw.printf("<dt>%s</dt><dd>%s</dd>\n",
					html.EscapeString(kv[0]), html.EscapeString(kv[1]))
			}
			bw.printf("</dl>\n")
		}
	}
	bw.printf("</body></html>\n")
	return bw.err
}

// errWriter folds write errors into one sticky error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
