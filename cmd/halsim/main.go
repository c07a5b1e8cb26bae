// Command halsim runs a single SNIC-host simulation and prints its
// metrics — the interactive front door to the simulator.
//
// Examples:
//
//	halsim -mode hal -fn NAT -rate 80
//	halsim -mode snic -fn REM -rate 30 -duration 500ms
//	halsim -mode hal -fn Count -workload hadoop -cxl
//	halsim -mode slb -fn NAT -rate 80 -slb-cores 4 -slb-th 20
//	halsim -mode hal -fn NAT -rate 60 -fault core-crash -fault-cores 4
//	halsim -mode hal -fn NAT -rate 80 -timeline run.csv -trace-out run.trace.json
//	halsim -mode hal -fn NAT -servers 64 -rate 6400 -duration 2ms -shards 4
//	halsim run examples/scenarios/chaos-soak.yaml -report report.md
//	halsim validate examples/scenarios/*.yaml
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"halsim/internal/cxl"
	"halsim/internal/fault"
	"halsim/internal/nf"
	"halsim/internal/scenario"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
	"halsim/internal/trace"
	"halsim/internal/version"
)

func main() {
	// Subcommand dispatch: `halsim validate` checks scenario files;
	// `halsim run FILE` is `halsim FILE` that insists on the file; anything
	// else is the classic flag interface.
	args, runSub := os.Args[1:], false
	if len(args) > 0 {
		switch args[0] {
		case "run":
			args, runSub = args[1:], true
		case "validate":
			validateCmd(args[1:])
			return
		}
	}

	var (
		modeFlag = flag.String("mode", "hal", "host | snic | hal | slb | slb-host")
		fnFlag   = flag.String("fn", "NAT", "function: KVS Count EMA NAT BM25 KNN Bayes REM Crypto Comp")
		fnCfg    = flag.String("fn-config", "", "function configuration (e.g. tea/lite for REM)")
		pipe     = flag.String("pipeline", "", "optional second function fed by the first")
		rate     = flag.Float64("rate", 40, "offered load in Gbps (not with -workload: a trace draws its own rate)")
		workload = flag.String("workload", "", "web | cache | hadoop datacenter trace")
		duration = flag.Duration("duration", 300*time.Millisecond, "simulated duration")
		seed     = flag.Int64("seed", 1, "simulation seed (beside a scenario file: overrides the file's)")
		shards   = flag.Int("shards", 0, "run the fleet on the conservative-parallel engine with this many shards (with -servers or a fleet scenario; 0/1 = serial; results are byte-identical)")
		profFlag = flag.Bool("prof", false, "record the parallel engine's flight recorder (sharded fleets only): window spans, stall attribution, inject batches and wheel counters; adds a scenario report's Parallel profile sections")
		useCXL   = flag.Bool("cxl", false, "attach the SNIC over CXL (coherent shared state)")

		servers  = flag.Int("servers", 0, "fleet size: run N full servers behind one shared ingress and a modeled ToR fabric (0 = single server)")
		dispatch = flag.String("dispatch", "rr", "fleet ingress dispatch: rr | p2c | least-conn (with -servers)")
		wireLat  = flag.Duration("wire", 2*time.Microsecond, "one-way ToR wire+switch latency (with -servers)")
		linkGbps = flag.Float64("link-gbps", 100, "per-server fabric link bandwidth in Gbps (with -servers)")
		pods     = flag.Int("pods", 0, "split the fleet into N pods behind oversubscribable ToR uplinks (0/1 = flat star; with -servers)")
		oversub  = flag.Float64("oversub", 1, "pod uplink oversubscription ratio (with -pods)")
		spineLat = flag.Duration("spine-wire", 0, "one-way spine wire+switch latency between ingress and pod ToRs (default: -wire; with -pods)")
		slbCores = flag.Int("slb-cores", 4, "SLB forwarding cores (slb mode)")
		slbTh    = flag.Float64("slb-th", 20, "SLB FwdTh in Gbps (slb and slb-host modes)")
		function = flag.Bool("functional", false, "execute the real network function per packet")

		faultKind  = flag.String("fault", "", "inject a fault: core-crash | rx-drop | telemetry | accel-degrade | server-crash (on a fleet, server 0 takes it)")
		faultAt    = flag.Duration("fault-at", 100*time.Millisecond, "fault onset (with -fault)")
		faultFor   = flag.Duration("fault-for", 100*time.Millisecond, "fault duration (with -fault)")
		faultCores = flag.Int("fault-cores", 2, "SNIC cores to crash (with -fault core-crash)")
		faultDrop  = flag.Float64("fault-drop", 0.2, "drop probability (with -fault rx-drop)")

		timelinePer = flag.Duration("timeline-period", 0, "timeline sampling period (default 100us; with -timeline or -timeline-json)")
		reportMD    = flag.String("report", "", "scenario runs: write the Markdown run report to this file ('-' for stdout)")
		reportHTML  = flag.String("report-html", "", "scenario runs: write the HTML run report to this file")
		showVersion = flag.Bool("version", false, "print the build commit and exit")
		arts        artifactPaths
	)
	flag.StringVar(&arts.timelineCSV, "timeline", "", "write the per-tick time series as CSV to this file")
	flag.StringVar(&arts.timelineJSON, "timeline-json", "", "write the time series (plus latency buckets) as JSON")
	flag.StringVar(&arts.traceOut, "trace-out", "", "write a sampled packet-lifecycle trace (Chrome trace-event JSON, loadable in Perfetto)")
	flag.IntVar(&arts.traceEvery, "trace-every", 0, fmt.Sprintf("trace 1-in-N packets (default %d; with -trace-out on a single server)", telemetry.DefaultTraceEvery))
	flag.StringVar(&arts.metricsOut, "metrics-out", "", "write the final counter registry in Prometheus text format ('-' for stdout)")
	flag.StringVar(&arts.telAddr, "telemetry-addr", "", "serve live /metrics on this address while the run executes")
	files := parseInterleaved(flag.CommandLine, args)
	if *showVersion {
		fmt.Printf("halsim %s\n", version.String())
		return
	}
	arts.prof = *profFlag

	// Flags set where they shape nothing are a usage error, not silently
	// ignored.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	needs := func(why string, names ...string) {
		var got []string
		for _, n := range names {
			if set[n] {
				got = append(got, "-"+n)
			}
		}
		if len(got) > 0 {
			usageErr("%s %s", strings.Join(got, ", "), why)
		}
	}
	if arts.timelineCSV == "" && arts.timelineJSON == "" {
		needs("set without -timeline or -timeline-json: there is no timeline to sample", "timeline-period")
	}
	if arts.traceOut == "" || *servers != 0 {
		needs("needs -trace-out on a single server: fleets have no packet tracer", "trace-every")
	}
	if set["trace-every"] && arts.traceEvery < 1 {
		usageErr("-trace-every must be >= 1, got %d", arts.traceEvery)
	}

	// A positional argument is a scenario file — `halsim scenario.yaml` is
	// shorthand for `halsim run scenario.yaml`. The file owns the run
	// configuration, so simulation and fault flags alongside it are a usage
	// error, not a silent precedence rule; only -seed and -shards act as
	// documented overrides, and telemetry/report export flags compose.
	if runSub && len(files) == 0 {
		usageErr("run wants one scenario file, have none")
	}
	if len(files) > 0 {
		if len(files) > 1 {
			usageErr("want one scenario file, have %d arguments (%v)", len(files), files)
		}
		var conflicts []string
		ov := scenario.Overrides{}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mode", "fn", "fn-config", "pipeline", "rate", "workload", "duration",
				"cxl", "slb-cores", "slb-th", "functional",
				"servers", "dispatch", "wire", "link-gbps", "pods", "oversub", "spine-wire",
				"fault", "fault-at", "fault-for", "fault-cores", "fault-drop", "timeline-period":
				conflicts = append(conflicts, "-"+f.Name)
			case "seed":
				ov.Seed = *seed
			case "shards":
				ov.Shards = *shards
			}
		})
		if len(conflicts) > 0 {
			usageErr("%s already defines the run; drop %s (use -seed/-shards to override, or edit the scenario)",
				files[0], strings.Join(conflicts, ", "))
		}
		executeScenario(files[0], ov, *reportMD, *reportHTML, arts)
		return
	}
	if *reportMD != "" || *reportHTML != "" {
		usageErr("-report/-report-html need a scenario file (see `halsim run`)")
	}

	// The flags describe one scenario — the simulator's own config, a
	// fleet block and at most one fault event — which the scenario
	// compiler validates and builds like any scenario file.
	mode, err := server.ParseMode(*modeFlag)
	if err != nil {
		usageErr("%v", err)
	}
	fn, err := nf.ParseID(*fnFlag)
	if err != nil {
		usageErr("%v", err)
	}
	s := &scenario.Scenario{Name: "halsim",
		Cfg: server.Config{
			Mode:         mode,
			Fn:           fn,
			FnConfig:     *fnCfg,
			SLBCores:     *slbCores,
			SLBFwdThGbps: *slbTh,
			Functional:   *function,
			Telemetry:    telemetry.Config{TimelinePeriod: sim.Duration(*timelinePer)},
			Shards:       *shards,
			Seed:         *seed,
		},
		RC: server.RunConfig{Duration: sim.Duration(*duration)},
	}
	if *useCXL {
		s.Cfg.Fabric = cxl.CXL
	}
	if *pipe != "" {
		if s.Cfg.Pipeline, err = nf.ParseID(*pipe); err != nil {
			usageErr("%v", err)
		}
		s.Cfg.PipelineOn = true
	}
	// A trace draws its own rate: -rate's default applies without one, and
	// an explicit -rate beside -workload is rejected by the run's checks.
	if *workload == "" || set["rate"] {
		s.RC.RateGbps = *rate
	}
	if *workload != "" {
		w, err := trace.ParseWorkload(strings.ToLower(*workload))
		if err != nil {
			usageErr("%v", err)
		}
		s.RC.Workload = &w
	}
	if mode != server.SLB && mode != server.SLBHost {
		needs("set without -mode slb or slb-host: only the software balancer has forwarding cores and a threshold", "slb-cores", "slb-th")
	}
	if *servers == 0 {
		needs("set without -servers: fleet flags do not apply to a single server", "dispatch", "wire", "link-gbps", "pods", "oversub", "spine-wire")
	} else {
		if *pods < 2 {
			needs("set without -pods >= 2: a flat star has no pod uplinks or spine", "oversub", "spine-wire")
		}
		s.Cfg.Cluster = &server.ClusterConfig{
			Servers:     *servers,
			Dispatch:    strings.ToLower(*dispatch),
			WireNS:      sim.Duration(*wireLat),
			LinkGbps:    *linkGbps,
			Pods:        *pods,
			Oversub:     *oversub,
			SpineWireNS: sim.Duration(*spineLat),
		}
	}
	kind := strings.ToLower(*faultKind)
	if kind == "telemetry" {
		kind = "telemetry-blackout"
	}
	if kind == "" {
		needs("set without -fault: there is no fault window to shape", "fault-at", "fault-for", "fault-cores", "fault-drop")
	} else {
		if kind != "core-crash" {
			needs("set without -fault core-crash", "fault-cores")
		}
		if kind != "rx-drop" {
			needs("set without -fault rx-drop", "fault-drop")
		}
		k, err := fault.ParseKind(kind)
		if err != nil {
			usageErr("-fault: %v", err)
		}
		w := fault.Window{From: sim.Duration(*faultAt), To: sim.Duration(*faultAt + *faultFor), Kind: k}
		switch k {
		case fault.CoreCrash:
			w.Cores = *faultCores
		case fault.RxDrop:
			w.DropProb = *faultDrop
		}
		s.Events = []scenario.EventSpec{{Window: w}}
	}

	start := time.Now()
	o := execute(s, scenario.Overrides{}, arts)
	res, cfg := o.Result, o.Compiled.Cfg
	fmt.Printf("mode=%v fn=%v", res.Mode, res.Fn)
	if cfg.Cluster != nil {
		fmt.Printf(" servers=%d dispatch=%s", cfg.Cluster.Servers, cfg.Cluster.Dispatch)
	}
	if cfg.PipelineOn {
		fmt.Printf("+%v", cfg.Pipeline)
	}
	if cfg.Shards > 1 {
		fmt.Printf(" engine=%s", res.Engine)
	}
	fmt.Println()
	fmt.Printf("  offered     %8.2f Gbps\n", res.OfferedGbps)
	fmt.Printf("  delivered   %8.2f Gbps avg, %.2f Gbps best %v window\n",
		res.AvgGbps, res.MaxGbps, server.MaxWindow(o.Compiled.RC))
	fmt.Printf("  latency     p50 %.1f us, p99 %.1f us, p99.9 %.1f us\n", res.P50us, res.P99us, res.P999us)
	fmt.Printf("  power       %8.1f W avg -> %.4f Gbps/W\n", res.AvgPowerW, res.EffGbpsPerW)
	fmt.Printf("              %8.1f W floor + %.1f W host + %.1f W snic\n", res.IdleW, res.HostActiveW, res.SNICActiveW)
	fmt.Printf("  drops       %8.2f %%\n", res.DropFraction*100)
	fmt.Printf("  snic share  %8.1f %% of delivered bytes\n", res.SNICShare*100)
	if res.Mode == server.HAL {
		fmt.Printf("  fwd_th      %8.1f Gbps final (%d LBP adjustments, %d host wakeups)\n",
			res.FinalFwdTh, res.LBPAdjustments, res.Wakeups)
	}
	if res.CoherenceRemote > 0 {
		fmt.Printf("  coherence   %8d remote transfers/invalidations\n", res.CoherenceRemote)
	}
	if o.Compiled.Cfg.Faults != nil {
		fmt.Printf("  faults      %d events, %d crashes, %d requeued, %d fault drops, %d LBP holds\n",
			res.FaultEvents, res.CoreCrashes, res.Requeued, res.FaultDrops, res.LBPHolds)
		if res.FailoverTicks >= 0 {
			fmt.Printf("  failover    Fwd_Th snapped in %d LBP ticks\n", res.FailoverTicks)
		}
		for i, ph := range res.Phases {
			names := []string{"before", "during", "after "}
			name := fmt.Sprintf("phase%d", i)
			if len(res.Phases) <= 3 && i < len(names) {
				name = names[i]
			}
			fmt.Printf("  %s      %8.2f Gbps, p99 %.1f us, %.1f W\n", name, ph.AvgGbps, ph.P99us, ph.AvgPowerW)
		}
		fmt.Printf("  ledger      %d sent = %d completed + %d dropped (in-flight %d)\n",
			res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd)
	}
	fmt.Printf("  [%d packets simulated in %v]\n", res.Sent, time.Since(start).Round(time.Millisecond))
	if arts.prof {
		printProfSummary(res, time.Since(start))
	}
	arts.write(res)
}

// printProfSummary prints the flight recorder's console digest: stall
// attribution, per-LP lanes, and the wall-clock split (the one place
// the nondeterministic wall numbers surface).
func printProfSummary(res server.Result, wall time.Duration) {
	rec := res.Prof
	if rec == nil {
		fmt.Printf("  prof        no recording (engine=%s; -prof needs a sharded fleet: -servers N -shards > 1)\n", res.Engine)
		return
	}
	fmt.Printf("  prof        %d rounds", rec.Rounds)
	if e, ok := rec.BindingLink(); ok {
		fmt.Printf(", binding link %s->%s (%d windows, %.1f%% of paced)", e.SrcName, e.DstName, e.Windows, e.Share*100)
	}
	fmt.Println()
	for i := 0; i < rec.NumLanes(); i++ {
		l := rec.LaneAt(i)
		fmt.Printf("    lp %-5s %d windows (%.1f%% paced), %d parks, %d batches/%d msgs (max %d)\n",
			l.Name(), l.WindowCount, rec.PacedShare(i)*100, l.Parks, l.Injects, l.InjectedMsgs, l.MaxBatch)
	}
	if wall > 0 {
		barrier := float64(rec.BarrierWallNS) / float64(wall.Nanoseconds()) * 100
		plan := float64(rec.PlanWallNS) / float64(wall.Nanoseconds()) * 100
		fmt.Printf("    wall: %.1f%% barriers, %.1f%% planning, latch wait %v (nondeterministic)\n",
			barrier, plan, time.Duration(rec.LatchWaitTotalNS()).Round(time.Microsecond))
	}
	for _, wl := range rec.Wheels() {
		fmt.Printf("    wheel %-5s %d cascades, %d overflow, slab high water %d\n",
			wl.Name, wl.Stats.Cascades, wl.Stats.Overflow, wl.Stats.SlabHighWater)
	}
}

// writeOut writes one output file for flag -what ("" skips it, "-" means
// stdout).
func writeOut(path, what string, fn func(w io.Writer) error) {
	if path == "" {
		return
	}
	if path == "-" {
		if err := fn(os.Stdout); err != nil {
			fail("-%s: %v", what, err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail("-%s: %v", what, err)
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail("-%s: %v", what, err)
	}
	fmt.Printf("  wrote %s\n", path)
}

// write exports the run's telemetry artifacts to the requested files.
func (a artifactPaths) write(res server.Result) {
	if res.Timeline != nil {
		writeOut(a.timelineCSV, "timeline", res.Timeline.WriteCSV)
		writeOut(a.timelineJSON, "timeline-json", res.Timeline.WriteJSON)
	}
	switch {
	case res.Trace != nil:
		writeOut(a.traceOut, "trace-out", res.Trace.WriteTrace)
	case res.Prof != nil:
		// Fleets have no packet tracer; a profiled fleet's document carries
		// the recorder's per-server lp:* lanes.
		writeOut(a.traceOut, "trace-out", func(w io.Writer) error {
			return telemetry.WriteProfTrace(w, res.Prof)
		})
	}
	if res.Metrics != nil {
		writeOut(a.metricsOut, "metrics-out", res.Metrics.WriteText)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "halsim: "+format+"\n", args...)
	os.Exit(1)
}

// usageErr reports a bad invocation: the message, then the flag summary,
// then exit status 2 (the flag package's own convention for usage errors).
func usageErr(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "halsim: "+format+"\n\n", args...)
	flag.Usage()
	os.Exit(2)
}
