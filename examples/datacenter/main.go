// Datacenter: replay the paper's bursty Meta-style traffic traces (web,
// cache, Hadoop — Fig. 8) against host-only and HAL servers, reproducing
// the Table V shape: equal-or-better throughput, host-class latency, and a
// large energy-efficiency gain because the SNIC absorbs the quiet periods
// while the host sleeps.
package main

import (
	"fmt"
	"log"

	"halsim"
)

func main() {
	fmt.Println("REM under the three datacenter traces (600 ms simulated each):")
	fmt.Println()
	for _, w := range halsim.Workloads {
		var host, hal halsim.Result
		for _, mode := range []halsim.Mode{halsim.HostOnly, halsim.HAL} {
			wl := w
			res, err := halsim.Run(
				halsim.Config{Mode: mode, Fn: halsim.REM},
				halsim.RunConfig{Duration: 600 * halsim.Millisecond, Workload: &wl},
			)
			if err != nil {
				log.Fatal(err)
			}
			if mode == halsim.HostOnly {
				host = res
			} else {
				hal = res
			}
		}
		eeGain := 0.0
		if host.EffGbpsPerW > 0 {
			eeGain = (hal.EffGbpsPerW/host.EffGbpsPerW - 1) * 100
		}
		fmt.Printf("%-7s host: %5.1f(%4.1f)G %6.1fus %5.1fW | HAL: %5.1f(%4.1f)G %6.1fus %5.1fW | EE %+5.1f%%\n",
			w, host.MaxGbps, host.AvgGbps, host.P99us, host.AvgPowerW,
			hal.MaxGbps, hal.AvgGbps, hal.P99us, hal.AvgPowerW, eeGain)
	}

	fmt.Println()
	fmt.Println("Stateful function over the emulated CXL-SNIC (shared coherent state):")
	wl := halsim.Hadoop
	res, err := halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.Count, Fabric: halsim.CXL},
		halsim.RunConfig{Duration: 600 * halsim.Millisecond, Workload: &wl},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hadoop  HAL+CXL Count: %5.1f(%4.1f)G p99 %6.1fus %5.1fW, %d coherence transfers\n",
		res.MaxGbps, res.AvgGbps, res.P99us, res.AvgPowerW, res.CoherenceRemote)

	// The same configuration over plain PCIe is rejected, as §V-C argues.
	_, err = halsim.Run(
		halsim.Config{Mode: halsim.HAL, Fn: halsim.Count, Fabric: halsim.PCIe},
		halsim.RunConfig{Duration: 100 * halsim.Millisecond, RateGbps: 20},
	)
	fmt.Printf("same over PCIe: %v\n", err)
}
