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
// Exit codes (shared with halsim, see internal/cliutil): 0 success,
// 1 runtime failure / failed validation run, 2 usage error (unknown
// experiment, bad flag, invalid fault plan).
package main

import (
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

	// fig2 and fig3 are two views of one SNIC-vs-host comparison; run it
	// once per invocation.
	compare := sync.OnceValues(func() (experiments.CompareResult, error) {
		return experiments.CompareSNICHost(opt)
	})
	runners := map[string]func(experiments.Options) error{
		"tab1": func(experiments.Options) error {
			emit(experiments.Table1())
			return nil
		},
		"fig2": func(experiments.Options) error {
			r, err := compare()
			if err != nil {
				return err
			}
			emit(r.Fig2())
			return nil
		},
		"fig3": func(experiments.Options) error {
			r, err := compare()
			if err != nil {
				return err
			}
			emit(r.Fig3())
			return nil
		},
		"fig4": func(o experiments.Options) error {
			rs, err := experiments.Fig4(o)
			if err != nil {
				return err
			}
			for _, r := range rs {
				for _, t := range r.Tables() {
					emit(t)
				}
				fmt.Printf("SNIC energy-efficiency crossover for %v: %.0f Gbps\n\n",
					r.Fn, r.CrossoverGbps(server.SNICOnly, server.HostOnly))
			}
			return nil
		},
		"fig5": func(o experiments.Options) error {
			r, err := experiments.Fig5(o)
			if err != nil {
				return err
			}
			emit(r.Table())
			return nil
		},
		"fig8": func(o experiments.Options) error {
			emit(experiments.Fig8(o))
			return nil
		},
		"fig9": func(o experiments.Options) error {
			rs, err := experiments.Fig9(o)
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
		"fig10": func(o experiments.Options) error {
			r, err := experiments.Fig10(o)
			if err != nil {
				return err
			}
			emit(r.Table())
			return nil
		},
		"tab2": func(o experiments.Options) error {
			r, err := experiments.Table2(o)
			if err != nil {
				return err
			}
			emit(r.Table())
			return nil
		},
		"tab5": func(o experiments.Options) error {
			r, err := experiments.Table5(o)
			if err != nil {
				return err
			}
			emit(r.Table())
			emit(r.SummaryTable())
			return nil
		},
		"costs": func(o experiments.Options) error {
			r, err := experiments.Costs(o)
			if err != nil {
				return err
			}
			emit(r.Table())
			return nil
		},
		"ablation": func(o experiments.Options) error {
			for _, f := range []func(experiments.Options) (experiments.AblationResult, error){
				experiments.AblationLBP,
				experiments.AblationWatermarks,
				experiments.AblationMonitorPeriod,
				experiments.AblationPacketSize,
				experiments.AblationFunctionMix,
			} {
				r, err := f(o)
				if err != nil {
					return err
				}
				emit(r.Table())
			}
			emit(experiments.DVFSEstimate())
			return nil
		},
		"faults": func(o experiments.Options) error {
			r, err := experiments.Faults(o)
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
		"validate": func(o experiments.Options) error {
			r, err := experiments.Validate(o)
			if err != nil {
				return err
			}
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
		if err := runner(opt); err != nil {
			fmt.Fprintf(os.Stderr, "halbench: %s: %v\n", name, err)
			// Validation errors (a fault plan that failed Validate) exit 2
			// like every other usage mistake; runtime failures exit 1.
			return cliutil.ExitCode(err)
		}
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
