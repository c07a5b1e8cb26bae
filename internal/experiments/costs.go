package experiments

import (
	"fmt"

	"halsim/internal/core"
	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/server"
	"halsim/internal/sim"
)

// CostsResult reproduces §VII-C: HAL's hardware, latency, power, and
// bandwidth costs. The FPGA synthesis numbers are the paper's published
// constants; the latency adder is re-measured end-to-end in the simulator
// by differencing HAL against SNIC-only at a light load.
type CostsResult struct {
	// Published implementation constants (AMD Vivado report, §VII-C).
	LUTs             int
	LUTFractionU280  float64
	FPGAPowerW       float64
	RTTAdderPaperNS  int
	TransceiverNS    int
	ASICPowerDivisor int

	// Measured in this reproduction.
	MeasuredP50AdderUS float64
	MeasuredP99AdderUS float64
	// LBP→HLB control bandwidth: one Fwd_Th update per LBP period.
	ControlMsgsPerSec float64
	ControlKbps       float64
}

// Costs measures the HLB latency adder and summarizes HAL's costs.
func Costs(opt Options) (CostsResult, error) {
	opt = opt.withDefaults()
	out := CostsResult{
		LUTs:             13861,
		LUTFractionU280:  0.011,
		FPGAPowerW:       0.1,
		RTTAdderPaperNS:  800,
		TransceiverNS:    365,
		ASICPowerDivisor: 14,
	}
	const rate = 15.0
	hal, err := server.Run(server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: opt.Seed},
		server.RunConfig{Duration: opt.Duration, RateGbps: rate})
	if err != nil {
		return out, err
	}
	snic, err := server.Run(server.Config{Mode: server.SNICOnly, Fn: nf.NAT, Seed: opt.Seed},
		server.RunConfig{Duration: opt.Duration, RateGbps: rate})
	if err != nil {
		return out, err
	}
	out.MeasuredP50AdderUS = hal.P50us - snic.P50us
	out.MeasuredP99AdderUS = hal.P99us - snic.P99us

	cfg := core.DefaultConfig(packet.Addr{}, packet.Addr{})
	out.ControlMsgsPerSec = float64(sim.Second) / float64(cfg.LBPPeriod)
	// One Fwd_Th update is a dozen bytes of register write; over
	// Ethernet it rides a minimum 64B frame.
	out.ControlKbps = out.ControlMsgsPerSec * 64 * 8 / 1000
	return out, nil
}

// Table renders the §VII-C costs summary.
func (r CostsResult) Table() Table {
	return Table{
		Title:   "§VII-C: HAL hardware, latency, power, and bandwidth costs",
		Headers: []string{"Cost", "Value", "Source"},
		Rows: [][]string{
			{"HLB FPGA LUTs", fmt.Sprintf("%d (%.1f%% of U280)", r.LUTs, r.LUTFractionU280*100), "paper (Vivado)"},
			{"HLB FPGA power", fmt.Sprintf("< %.1f W (ASIC ~%dx lower)", r.FPGAPowerW, r.ASICPowerDivisor), "paper (Vivado)"},
			{"RTT adder (paper)", fmt.Sprintf("%d ns (%d ns transceiver+MAC)", r.RTTAdderPaperNS, r.TransceiverNS), "paper"},
			{"RTT adder (measured p50)", fmt.Sprintf("%.2f us", r.MeasuredP50AdderUS), "this repro"},
			{"RTT adder (measured p99)", fmt.Sprintf("%.2f us", r.MeasuredP99AdderUS), "this repro"},
			{"LBP control traffic", fmt.Sprintf("%.0f msg/s = %.1f kbps", r.ControlMsgsPerSec, r.ControlKbps), "this repro"},
		},
		Notes: []string{"HLB ingress+egress latency constants sum to the paper's 800 ns"},
	}
}
