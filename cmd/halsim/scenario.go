package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"halsim/internal/cliutil"
	"halsim/internal/scenario"
)

// The scenario subcommands:
//
//	halsim run scenario.yaml [-seed N] [-shards N] [-report f.md] [-report-html f.html]
//	halsim validate scenario.yaml...
//
// run executes the scenario, prints the assertion verdicts, and exits 0
// only when every assertion held (1 on assertion failure, 2 on a scenario
// or plan validation error). validate checks files without running them.

// parseInterleaved parses args allowing flags before and after positional
// arguments (the flag package stops at the first positional), returning
// the positionals in order.
func parseInterleaved(fs *flag.FlagSet, args []string) []string {
	fs.Parse(args)
	var files []string
	for fs.NArg() > 0 {
		rest := fs.Args()
		files = append(files, rest[0])
		fs.Parse(rest[1:])
	}
	return files
}

// artifactPaths carries the telemetry export destinations shared with the
// flag-based path.
type artifactPaths struct {
	timelineCSV, timelineJSON, traceOut, metricsOut string
	prof                                            bool
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("halsim run", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: halsim run [flags] scenario.yaml\n\n")
		fs.PrintDefaults()
	}
	var (
		seed       = fs.Int64("seed", 0, "override the scenario's seed (0 = use the file's)")
		shards     = fs.Int("shards", 0, "override a fleet scenario's shard count (0 = use the file's)")
		reportMD   = fs.String("report", "", "write the Markdown run report to this file ('-' for stdout)")
		reportHTML = fs.String("report-html", "", "write the HTML run report to this file")
		arts       artifactPaths
	)
	fs.StringVar(&arts.timelineCSV, "timeline", "", "write the per-tick time series as CSV to this file")
	fs.StringVar(&arts.timelineJSON, "timeline-json", "", "write the time series (plus latency buckets) as JSON")
	fs.StringVar(&arts.traceOut, "trace-out", "", "write a sampled packet-lifecycle trace (Chrome trace-event JSON)")
	fs.StringVar(&arts.metricsOut, "metrics-out", "", "write the final counter registry in Prometheus text format ('-' for stdout)")
	fs.BoolVar(&arts.prof, "prof", false, "record the parallel engine's flight recorder (fleet scenarios with shards > 1); adds the report's Parallel profile section")
	files := parseInterleaved(fs, args)
	if len(files) != 1 {
		fmt.Fprintf(os.Stderr, "halsim run: want exactly one scenario file, have %d\n\n", len(files))
		fs.Usage()
		os.Exit(cliutil.ExitUsage)
	}
	executeScenario(files[0], scenario.Overrides{Seed: *seed, Shards: *shards},
		*reportMD, *reportHTML, arts)
}

func validateCmd(args []string) {
	fs := flag.NewFlagSet("halsim validate", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: halsim validate scenario.yaml...\n")
	}
	files := parseInterleaved(fs, args)
	if len(files) == 0 {
		fs.Usage()
		os.Exit(cliutil.ExitUsage)
	}
	code := cliutil.ExitOK
	for _, path := range files {
		s, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halsim: %v\n", err)
			if c := cliutil.ExitCode(err); c > code {
				code = c
			}
			continue
		}
		// Load already validated (including a dry-run compile); compile
		// again only to report the effective schedule.
		comp, err := s.Compile(scenario.Overrides{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "halsim: %s: %v\n", path, err)
			if c := cliutil.ExitCode(err); c > code {
				code = c
			}
			continue
		}
		fmt.Printf("%s: ok — scenario %q: %d fault window(s), %d assertion(s)\n",
			path, s.Name, len(comp.FaultWindows), len(s.Assertions))
	}
	os.Exit(code)
}

// executeScenario runs one scenario file end to end: execute, print the
// verdicts, write reports and telemetry artifacts, exit by outcome.
func executeScenario(path string, ov scenario.Overrides, reportMD, reportHTML string, arts artifactPaths) {
	s, err := scenario.Load(path)
	if err != nil {
		cliutil.Fail("halsim", err)
	}
	// Telemetry export flags compose with the scenario: asking for an
	// artifact turns the corresponding collector on.
	if arts.timelineCSV != "" || arts.timelineJSON != "" {
		s.Run.Telemetry.Timeline = true
	}
	shards := s.Run.Shards
	if ov.Shards != 0 {
		shards = ov.Shards
	}
	if s.Run.Cluster != nil && arts.traceOut != "" && !(shards > 1 && arts.prof) {
		fmt.Fprintf(os.Stderr, "halsim: %s: -trace-out on a fleet needs shards > 1 and -prof: fleets have no packet tracer, only the parallel engine's lp:* recorder trace\n", path)
		os.Exit(cliutil.ExitUsage)
	}
	if arts.traceOut != "" && s.Run.Telemetry.TraceEvery == 0 {
		s.Run.Telemetry.TraceEvery = 64
	}
	if arts.prof {
		s.Run.Telemetry.Prof = true
	}

	start := time.Now()
	o, err := s.Execute(ov)
	if err != nil {
		cliutil.Fail("halsim", err)
	}
	res := o.Result

	fmt.Printf("scenario %q: %d fault window(s), %d assertion(s)\n",
		s.Name, len(o.Compiled.FaultWindows), len(s.Assertions))
	fmt.Printf("  delivered   %8.2f Gbps avg (offered %.2f), p99 %.1f us\n",
		res.AvgGbps, res.OfferedGbps, res.P99us)
	fmt.Printf("  power       %8.1f W avg -> %.4f Gbps/W\n", res.AvgPowerW, res.EffGbpsPerW)
	if o.Compiled.Plan != nil {
		fmt.Printf("  faults      %d events, %d crashes, %d requeued, %d fault drops\n",
			res.FaultEvents, res.CoreCrashes, res.Requeued, res.FaultDrops)
	}
	for _, c := range o.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		line := fmt.Sprintf("  %-4s  %s  (observed %s", verdict, c.Assertion.String(), c.ObservedText)
		if c.Detail != "" {
			line += "; " + c.Detail
		}
		fmt.Println(line + ")")
	}
	fmt.Printf("  [%d packets simulated in %v]\n", res.Sent, time.Since(start).Round(time.Millisecond))
	if arts.prof {
		printProfSummary(res, time.Since(start))
	}

	writeReport := func(path, what string, fn func(w *os.File) error) {
		if path == "" {
			return
		}
		f := os.Stdout
		if path != "-" {
			var err error
			if f, err = os.Create(path); err != nil {
				fail("-%s: %v", what, err)
			}
			defer f.Close()
		}
		if err := fn(f); err != nil {
			fail("-%s: %v", what, err)
		}
		if path != "-" {
			fmt.Printf("  wrote %s\n", path)
		}
	}
	writeReport(reportMD, "report", func(f *os.File) error { return o.WriteMarkdown(f) })
	writeReport(reportHTML, "report-html", func(f *os.File) error { return o.WriteHTML(f) })
	writeArtifacts(res, arts.timelineCSV, arts.timelineJSON, arts.traceOut, arts.metricsOut)

	if !o.Passed {
		failed := 0
		for _, c := range o.Checks {
			if !c.Pass {
				failed++
			}
		}
		fmt.Fprintf(os.Stderr, "halsim: scenario %q failed %d of %d assertions\n",
			s.Name, failed, len(o.Checks))
		os.Exit(cliutil.ExitFailure)
	}
}
