package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"time"

	"halsim/internal/cliutil"
	"halsim/internal/scenario"
	"halsim/internal/telemetry"
)

// The scenario subcommands:
//
//	halsim run scenario.yaml [-seed N] [-shards N] [-report f.md] [-report-html f.html] [export flags]
//	halsim validate scenario.yaml...
//
// run executes the scenario, prints the assertion verdicts, and exits 0
// only when every assertion held (1 on assertion failure, 2 on a scenario
// or plan validation error); it parses the main flag set, so it takes every
// flag `halsim scenario.yaml` does, before or after the file. validate
// checks files without running them.

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

// artifactPaths carries the telemetry export flags, shared by the flag
// path and scenario files. traceEvery is 0 when -trace-every is not set.
type artifactPaths struct {
	timelineCSV, timelineJSON, traceOut, metricsOut, telAddr string
	traceEvery                                               int
	prof                                                     bool
}

// execute validates, compiles and runs s with the export flags applied:
// each requested artifact turns its collector on, and -metrics-out or
// -telemetry-addr hand the run a registry. Any invalid input exits 2
// before the run starts; a run failure exits 1.
func execute(s *scenario.Scenario, ov scenario.Overrides, arts artifactPaths) *scenario.Outcome {
	t := &s.Cfg.Telemetry
	if arts.timelineCSV != "" || arts.timelineJSON != "" {
		t.Timeline = true
	}
	if s.Cfg.Cluster != nil && arts.traceEvery != 0 {
		fmt.Fprintf(os.Stderr, "halsim: -trace-every needs -trace-out on a single server: fleets have no packet tracer\n")
		os.Exit(cliutil.ExitUsage)
	}
	if arts.traceOut != "" {
		shards := s.Cfg.Shards
		if ov.Shards != 0 {
			shards = ov.Shards
		}
		if s.Cfg.Cluster == nil {
			t.TraceEvery = cmp.Or(arts.traceEvery, t.TraceEvery, telemetry.DefaultTraceEvery)
		} else if !(shards > 1 && arts.prof) {
			// A fleet's trace is the recorder's lp:* lanes: -trace-out
			// lowers to Prof only, never to packet tracing.
			fmt.Fprintf(os.Stderr, "halsim: -trace-out on a fleet needs -shards > 1 -prof: fleets have no packet tracer, only the parallel engine's lp:* recorder trace\n")
			os.Exit(cliutil.ExitUsage)
		}
	}
	if arts.prof {
		t.Prof = true
	}
	if err := s.Validate(); err != nil {
		cliutil.Fail("halsim", err)
	}
	comp, err := s.Compile(ov)
	if err != nil {
		cliutil.Fail("halsim", err)
	}
	if arts.metricsOut != "" || arts.telAddr != "" {
		// A live endpoint and a text dump share one registry with the run.
		comp.Cfg.Telemetry.Registry = telemetry.NewRegistry()
	}
	if arts.telAddr != "" {
		stop, err := serveTelemetry(arts.telAddr, comp.Cfg.Telemetry.Registry)
		if err != nil {
			fail("-telemetry-addr: %v", err)
		}
		defer stop()
	}
	o, err := comp.Run()
	if err != nil {
		cliutil.Fail("halsim", err)
	}
	return o
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
			path, s.Name, len(comp.Windows()), len(s.Assertions))
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
	start := time.Now()
	o := execute(s, ov, arts)
	res := o.Result

	fmt.Printf("scenario %q: %d fault window(s), %d assertion(s)\n",
		s.Name, len(o.Compiled.Windows()), len(s.Assertions))
	fmt.Printf("  delivered   %8.2f Gbps avg (offered %.2f), p99 %.1f us\n",
		res.AvgGbps, res.OfferedGbps, res.P99us)
	fmt.Printf("  power       %8.1f W avg -> %.4f Gbps/W\n", res.AvgPowerW, res.EffGbpsPerW)
	if o.Compiled.Cfg.Faults != nil {
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

	writeOut(reportMD, "report", o.WriteMarkdown)
	writeOut(reportHTML, "report-html", o.WriteHTML)
	arts.write(res)

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
