// Command halbench regenerates every table and figure of the HAL paper's
// evaluation and prints them as aligned ASCII tables.
//
// Usage:
//
//	halbench [-quick] [-seed N] [-csv] [-cpuprofile f] [-memprofile f] [experiment ...]
//
// With no experiment arguments it runs all of them. Valid names: tab1,
// fig2, fig3, fig4, fig5, fig8, fig9, fig10, tab2, tab5, costs, ablation,
// faults, validate.
//
// Each simulation runs at most once per invocation. fig2 and fig3 share
// one SNIC-vs-host comparison; fig4 prints the SNIC-only and host-only
// points of fig9's sweep; validate scores the claims on the fig9, fig5,
// tab5 and fig2/fig3 results. So a full run simulates nothing twice, but
// validate run alone runs those four drivers (without printing them) and
// takes about as long as they do together.
//
// Exit codes (shared with halsim, see internal/cliutil): 0 success,
// 1 runtime failure / failed validation run, 2 usage error (unknown
// experiment, bad flag, invalid fault plan).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"halsim/internal/cliutil"
	"halsim/internal/experiments"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/version"
)

var emitCSV bool

// emit prints a table in the selected format.
func emit(t experiments.Table) {
	if emitCSV {
		fmt.Print(t.CSV())
		fmt.Println()
		return
	}
	fmt.Println(t.Render())
}

func main() {
	quick := flag.Bool("quick", false, "shorter simulations (noisier numbers)")
	seed := flag.Int64("seed", 1, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	showVersion := flag.Bool("version", false, "print the build commit and exit")
	flag.Parse()
	if *showVersion {
		fmt.Printf("halbench %s\n", version.String())
		return
	}
	emitCSV = *csv
	// run returns instead of calling os.Exit so the profile defers flush.
	os.Exit(run(*quick, *seed, *cpuprofile, *memprofile, flag.Args()))
}

func run(quick bool, seed int64, cpuprofile, memprofile string, names []string) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "halbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "halbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "halbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "halbench: -memprofile: %v\n", err)
			}
		}()
	}

	opt := experiments.Options{Seed: seed}
	if quick {
		opt.Duration = 80 * sim.Millisecond
		opt.TraceDuration = 200 * sim.Millisecond
	}

	// Drivers whose results more than one experiment prints or scores run
	// once per invocation.
	compare := sync.OnceValues(func() (experiments.CompareResult, error) { return experiments.CompareSNICHost(opt) })
	fig9 := sync.OnceValues(func() ([]experiments.SweepResult, error) { return experiments.Fig9(opt) })
	fig5 := sync.OnceValues(func() (experiments.SLBResult, error) { return experiments.Fig5(opt) })
	tab5 := sync.OnceValues(func() (experiments.Tab5Result, error) { return experiments.Table5(opt) })
	runners := map[string]func() error{
		"tab1": func() error {
			emit(experiments.Table1())
			return nil
		},
		"fig2": func() error {
			r, err := compare()
			if err != nil {
				return err
			}
			emit(r.Fig2())
			return nil
		},
		"fig3": func() error {
			r, err := compare()
			if err != nil {
				return err
			}
			emit(r.Fig3())
			return nil
		},
		"fig4": func() error {
			rs, err := fig9()
			if err != nil {
				return err
			}
			for _, r := range experiments.Fig4(rs) {
				for _, t := range r.Tables() {
					emit(t)
				}
				fmt.Printf("SNIC energy-efficiency crossover for %v: %.0f Gbps\n\n",
					r.Fn, r.CrossoverGbps(server.SNICOnly, server.HostOnly))
			}
			return nil
		},
		"fig5": func() error {
			r, err := fig5()
			if err != nil {
				return err
			}
			emit(r.Table())
			return nil
		},
		"fig8": func() error {
			emit(experiments.Fig8(opt))
			return nil
		},
		"fig9": func() error {
			rs, err := fig9()
			if err != nil {
				return err
			}
			for _, r := range rs {
				for _, t := range r.Tables() {
					emit(t)
				}
			}
			return nil
		},
		"fig10": func() error {
			r, err := experiments.Fig10(opt)
			if err != nil {
				return err
			}
			emit(r.Table())
			return nil
		},
		"tab2": func() error {
			r, err := experiments.Table2(opt)
			if err != nil {
				return err
			}
			emit(r.Table())
			return nil
		},
		"tab5": func() error {
			r, err := tab5()
			if err != nil {
				return err
			}
			emit(r.Table())
			emit(r.SummaryTable())
			return nil
		},
		"costs": func() error {
			r, err := experiments.Costs(opt)
			if err != nil {
				return err
			}
			emit(r.Table())
			return nil
		},
		"ablation": func() error {
			for _, f := range []func(experiments.Options) (experiments.AblationResult, error){
				experiments.AblationLBP,
				experiments.AblationWatermarks,
				experiments.AblationMonitorPeriod,
				experiments.AblationPacketSize,
				experiments.AblationFunctionMix,
			} {
				r, err := f(opt)
				if err != nil {
					return err
				}
				emit(r.Table())
			}
			emit(experiments.DVFSEstimate())
			return nil
		},
		"faults": func() error {
			r, err := experiments.Faults(opt)
			if err != nil {
				return err
			}
			emit(r.Table())
			for _, p := range r.Points {
				if !p.LedgerOK() {
					return fmt.Errorf("packet ledger leak in %s/%s: %d sent, %d completed, %d dropped, %d in flight",
						p.Name, p.Fn, p.Sent, p.Completed, p.Dropped, p.InFlight)
				}
			}
			return nil
		},
		"validate": func() error {
			var ev experiments.Evidence
			var errs [4]error
			ev.Fig9, errs[0] = fig9()
			ev.Fig5, errs[1] = fig5()
			ev.Table5, errs[2] = tab5()
			ev.Compare, errs[3] = compare()
			if err := errors.Join(errs[:]...); err != nil {
				return err
			}
			r := experiments.Validate(ev)
			emit(r.Table())
			if !r.Passed() {
				return fmt.Errorf("validation failed")
			}
			return nil
		},
	}
	order := []string{"tab1", "fig2", "fig3", "fig4", "tab2", "fig5", "fig8", "fig9", "tab5", "fig10", "costs", "ablation", "faults", "validate"}

	if len(names) == 0 {
		names = order
	}
	for _, name := range names {
		runner, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "halbench: unknown experiment %q (valid: %v)\n", name, order)
			return cliutil.ExitUsage
		}
		start := time.Now()
		if err := runner(); err != nil {
			fmt.Fprintf(os.Stderr, "halbench: %s: %v\n", name, err)
			// Validation errors (a fault plan that failed Validate) exit 2
			// like every other usage mistake; runtime failures exit 1.
			return cliutil.ExitCode(err)
		}
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
