// Ratesweep: a miniature Fig. 9 — sweep the offered packet rate for one
// function across Host/SNIC/HAL and print throughput, p99 latency, and
// power side by side, including the SNIC's saturation cliff and the
// energy-efficiency crossover that motivates HAL.
package main

import (
	"flag"
	"fmt"
	"log"

	"halsim"
)

func main() {
	fnName := flag.String("fn", "REM", "function to sweep")
	flag.Parse()
	fn, err := halsim.ParseFunction(*fnName)
	if err != nil {
		log.Fatal(err)
	}

	modes := []halsim.Mode{halsim.HostOnly, halsim.SNICOnly, halsim.HAL}
	rates := []float64{5, 15, 30, 45, 60, 80, 100}

	fmt.Printf("%v sweep (150 ms/point):\n\n", fn)
	fmt.Printf("%6s |", "Gbps")
	for _, m := range modes {
		fmt.Printf(" %-26v |", m)
	}
	fmt.Println()
	fmt.Printf("%6s |", "")
	for range modes {
		fmt.Printf(" %8s %9s %6s |", "TP", "p99us", "W")
	}
	fmt.Println()

	for _, rate := range rates {
		fmt.Printf("%6.0f |", rate)
		for _, m := range modes {
			res, err := halsim.Run(
				halsim.Config{Mode: m, Fn: fn},
				halsim.RunConfig{Duration: 150 * halsim.Millisecond, RateGbps: rate},
			)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %8.1f %9.1f %6.1f |", res.AvgGbps, res.P99us, res.AvgPowerW)
		}
		fmt.Println()
	}
	fmt.Println("\nwatch for: SNIC p99 exploding at its saturation rate while HAL keeps")
	fmt.Println("tracking the offered load at sub-host power.")
}
