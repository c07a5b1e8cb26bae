// Package platform models the execution platforms of the paper: the
// BlueField-2 SNIC processor (Arm CPU + REM/crypto/compression
// accelerators), the QAT-equipped Intel Xeon host processor, and — for the
// Fig. 10 discussion — BlueField-3 and Sapphire Rapids. A platform is a set
// of per-function service profiles (how long a core/accelerator instance is
// occupied per packet, and with how much variance) plus a power model.
//
// Profile numbers are calibrated against the paper's published measurements
// (Table II SLO throughputs, Table V saturation throughputs and p99
// latencies, Fig. 2/3 ratios, §III-B power). We reproduce shapes — who
// saturates where, who wins on latency and energy — not exact microseconds.
package platform

import (
	"fmt"

	"halsim/internal/nf"
	"halsim/internal/rng"
	"halsim/internal/sim"
)

// UnitKind distinguishes CPU-based execution from fixed-function
// accelerators.
type UnitKind int

// Unit kinds.
const (
	CPU UnitKind = iota
	Accelerator
)

func (k UnitKind) String() string {
	if k == Accelerator {
		return "accel"
	}
	return "cpu"
}

// FnProfile describes how one platform executes one function.
type FnProfile struct {
	// Unit says whether the function runs on cores or an accelerator.
	Unit UnitKind
	// Servers is the number of parallel execution contexts (CPU cores
	// polling rings, or accelerator queues).
	Servers int
	// MaxGbps is the platform's saturation throughput for this function
	// with MTU packets; per-server byte rate derives from it.
	MaxGbps float64
	// OverheadNS is per-packet fixed work occupying a server (lookup,
	// setup, doorbells) independent of packet size.
	OverheadNS sim.Time
	// PipelineNS is added latency that does NOT occupy a server (DMA,
	// PCIe crossing, interconnect hops).
	PipelineNS sim.Time
	// JitterMeanNS is the mean of an exponential service-time jitter
	// component, modeling data-dependent work (ruleset walks, hash
	// probes) — the main source of early p99 growth on wimpy cores.
	JitterMeanNS sim.Time
}

// PerServerGbps returns the saturation rate of a single server.
func (p FnProfile) PerServerGbps() float64 {
	if p.Servers <= 0 {
		return p.MaxGbps
	}
	return p.MaxGbps / float64(p.Servers)
}

// calibrationMTU is the wire size the profiles are calibrated at — the
// paper's MTU-packet experiments (1500 B payload + headers ≈ 1514 B, but
// the generator offers 1500 B frames; we calibrate at 1500).
const calibrationMTU = 1500

// byteNS returns the per-byte service component, derived so that the MEAN
// MTU-packet service time (overhead + bytes·byteNS + E[jitter]) equals
// exactly one server's share of MaxGbps. Profiles whose overhead+jitter
// exceed the MTU budget degrade gracefully to a floored byte rate.
func (p FnProfile) byteNS() float64 {
	perServer := p.PerServerGbps()
	if perServer <= 0 {
		perServer = 0.001
	}
	budget := calibrationMTU * 8 / perServer // ns for one MTU packet
	net := budget - float64(p.OverheadNS) - float64(p.JitterMeanNS)
	if min := budget * 0.05; net < min {
		net = min
	}
	return net / calibrationMTU
}

// ServiceTime returns the time one server is occupied by a wireBytes-sized
// packet; rng supplies the jitter draw (may be nil for the deterministic
// component only). The mean over jitter draws at MTU size equals the
// MaxGbps calibration point.
func (p FnProfile) ServiceTime(wireBytes int, r *rng.Rand) sim.Time {
	t := p.OverheadNS + sim.Time(float64(wireBytes)*p.byteNS())
	if r != nil && p.JitterMeanNS > 0 {
		t += sim.Time(r.ExpFloat64() * float64(p.JitterMeanNS))
	}
	return t
}

// ServiceTimer is a profile's service-time sampler with the byteNS
// calibration precomputed. Stations draw one service time per packet, and
// re-deriving byteNS there costs two float divides per draw; the profile's
// parameters are fixed between setProfile calls, so the station binds a
// timer per profile instead. Sample reproduces FnProfile.ServiceTime
// bit-for-bit: same arithmetic, same rng draw order.
type ServiceTimer struct {
	overheadNS sim.Time
	byteNS     float64
	jitterNS   float64
}

// Timer returns the precomputed service-time sampler for p.
func (p FnProfile) Timer() ServiceTimer {
	return ServiceTimer{overheadNS: p.OverheadNS, byteNS: p.byteNS(), jitterNS: float64(p.JitterMeanNS)}
}

// Sample draws one service time; equivalent to FnProfile.ServiceTime. The
// jitter draw is the stream's concrete ExpFloat64.
func (t ServiceTimer) Sample(wireBytes int, r *rng.Rand) sim.Time {
	st := t.overheadNS + sim.Time(float64(wireBytes)*t.byteNS)
	if r != nil && t.jitterNS > 0 {
		st += sim.Time(r.ExpFloat64() * t.jitterNS)
	}
	return st
}

// MeanServiceTime is the expected service time (deterministic part plus
// the jitter mean).
func (p FnProfile) MeanServiceTime(wireBytes int) sim.Time {
	return p.ServiceTime(wireBytes, nil) + p.JitterMeanNS
}

// MinLatency is the no-queueing latency of an MTU packet: pipeline plus
// deterministic service.
func (p FnProfile) MinLatency(wireBytes int) sim.Time {
	return p.PipelineNS + p.ServiceTime(wireBytes, nil)
}

// PowerModel captures the server-level power behaviour of §III-B: a large
// static floor, a busy-poll adder when host DPDK cores are awake, and
// small throughput-proportional slopes.
type PowerModel struct {
	// ServerIdleW is the whole-server idle draw (paper: 194 W, SNIC
	// idle included).
	ServerIdleW float64
	// SNICActiveMaxW is the SNIC's extra draw at full utilization
	// (paper: 29 W idle → 30–37 W busy, so up to ~8 W).
	SNICActiveMaxW float64
	// HostPollW is the draw of host DPDK cores busy-waiting, paid
	// whenever the host cores are awake regardless of packet rate.
	HostPollW float64
	// HostSlopeWPerGbps adds per-Gbps of host-processed traffic.
	HostSlopeWPerGbps float64
	// SNICSlopeWPerGbps adds per-Gbps of SNIC-processed traffic.
	SNICSlopeWPerGbps float64
}

// Watts computes instantaneous system power. hostAwake says whether host
// polling cores are out of sleep; gbps are currently processed rates.
func (m PowerModel) Watts(hostAwake bool, hostGbps, snicGbps, snicUtil float64) float64 {
	_, host, snic := m.Breakdown(hostAwake, hostGbps, snicGbps, snicUtil)
	return m.ServerIdleW + host + snic
}

// Breakdown splits instantaneous power into the static floor, the host's
// active draw, and the SNIC's active draw — the decomposition behind the
// §III-B observation that the SNIC contributes only 0.5–2% of system
// power.
func (m PowerModel) Breakdown(hostAwake bool, hostGbps, snicGbps, snicUtil float64) (idleW, hostW, snicW float64) {
	idleW = m.ServerIdleW
	if snicUtil > 1 {
		snicUtil = 1
	}
	if snicUtil > 0 {
		snicW += m.SNICActiveMaxW * snicUtil
	}
	snicW += m.SNICSlopeWPerGbps * snicGbps
	if hostAwake {
		hostW = m.HostPollW + m.HostSlopeWPerGbps*hostGbps
	}
	return idleW, hostW, snicW
}

// Platform bundles the profiles of one processor complex.
type Platform struct {
	Name     string
	LineGbps float64
	Profiles map[nf.ID]FnProfile
	// Fallbacks are the software-path profiles used when a function's
	// accelerator is faulted offline and processing falls back to the
	// platform's cores. Functions absent from the map degrade via
	// DeriveFallback.
	Fallbacks map[nf.ID]FnProfile
	Power     PowerModel
}

// Profile returns the profile for fn, failing loudly on gaps so calibration
// tables stay total.
func (pl *Platform) Profile(fn nf.ID) FnProfile {
	p, ok := pl.Profiles[fn]
	if !ok {
		panic(fmt.Sprintf("platform %s: no profile for %v", pl.Name, fn))
	}
	return p
}

// Supports reports whether the platform has a profile for fn.
func (pl *Platform) Supports(fn nf.ID) bool {
	_, ok := pl.Profiles[fn]
	return ok
}

// SoftwareFallback returns the profile the platform degrades to when fn's
// accelerator is faulted offline: the calibrated software path when one is
// on file, a derived one otherwise. CPU-unit profiles are their own
// fallback (a core fault is modeled as capacity loss, not a rate change).
func (pl *Platform) SoftwareFallback(fn nf.ID) FnProfile {
	base := pl.Profile(fn)
	if base.Unit == CPU {
		return base
	}
	if fb, ok := pl.Fallbacks[fn]; ok {
		fb.Servers = base.Servers // station core count is fixed at build time
		return fb
	}
	return DeriveFallback(base)
}

// DeriveFallback synthesizes a software-path profile for an accelerated
// one: the cores take over at roughly a tenth of the accelerator's rate
// with heavier per-packet overhead and jitter — the shape §III-A reports
// for software REM/crypto against their engines.
func DeriveFallback(accel FnProfile) FnProfile {
	fb := accel
	fb.Unit = CPU
	fb.MaxGbps = accel.MaxGbps / 10
	fb.OverheadNS = accel.OverheadNS * 8
	fb.JitterMeanNS = accel.JitterMeanNS * 8
	// The DMA/doorbell pipeline stage disappears; core-local processing
	// keeps a short fixed pipeline.
	fb.PipelineNS = accel.PipelineNS / 3
	return fb
}

const (
	us = sim.Microsecond
	ns = sim.Nanosecond
)

// BlueField2 returns the BF-2 SNIC processor model: 8 wimpy A72 cores and
// REM/crypto/compression accelerators behind the 100 Gbps ConnectX-6 path.
//
// Calibration anchors: Table V SNIC saturation throughputs (NAT≈40–45,
// Count≈58, KNN≈15–19, EMA≈11–13, REM≈42–44, Crypto≈39–58 Gbps), Table II
// SLO points, Fig. 2 software-only throughput gaps, §III-A REM accelerator
// 50 Gbps ceiling, §III-B SNIC power 29→30–37 W.
func BlueField2() *Platform {
	return &Platform{
		Name:     "BlueField-2",
		LineGbps: 100,
		Profiles: map[nf.ID]FnProfile{
			// Software-only functions on the 8 A72 cores. The jitter
			// components keep overhead+jitter within the per-packet MTU
			// budget implied by MaxGbps while still producing the wimpy
			// cores' early tail growth under bursts.
			nf.KVS:   {Unit: CPU, Servers: 8, MaxGbps: 4, OverheadNS: 2 * us, PipelineNS: 2 * us, JitterMeanNS: 12 * us},
			nf.Count: {Unit: CPU, Servers: 8, MaxGbps: 58, OverheadNS: 150 * ns, PipelineNS: 2 * us, JitterMeanNS: 500 * ns},
			nf.EMA:   {Unit: CPU, Servers: 8, MaxGbps: 12, OverheadNS: 1500 * ns, PipelineNS: 2 * us, JitterMeanNS: 3 * us},
			nf.NAT:   {Unit: CPU, Servers: 8, MaxGbps: 42, OverheadNS: 300 * ns, PipelineNS: 2 * us, JitterMeanNS: 800 * ns},
			nf.BM25:  {Unit: CPU, Servers: 8, MaxGbps: 1.2, OverheadNS: 9 * us, PipelineNS: 2 * us, JitterMeanNS: 30 * us},
			nf.KNN:   {Unit: CPU, Servers: 8, MaxGbps: 16, OverheadNS: 600 * ns, PipelineNS: 2 * us, JitterMeanNS: 2500 * ns},
			nf.Bayes: {Unit: CPU, Servers: 8, MaxGbps: 0.1, OverheadNS: 90 * us, PipelineNS: 2 * us, JitterMeanNS: 300 * us},
			// Accelerated functions. The RXP REM engine caps at 50 Gbps;
			// accelerators expose multiple hardware queues, modeled as
			// 8 parallel contexts.
			nf.REM:    {Unit: Accelerator, Servers: 8, MaxGbps: 43, OverheadNS: 400 * ns, PipelineNS: 3 * us, JitterMeanNS: 700 * ns},
			nf.Crypto: {Unit: Accelerator, Servers: 8, MaxGbps: 45, OverheadNS: 500 * ns, PipelineNS: 3 * us, JitterMeanNS: 800 * ns},
			nf.Comp:   {Unit: Accelerator, Servers: 8, MaxGbps: 50, OverheadNS: 400 * ns, PipelineNS: 3 * us, JitterMeanNS: 600 * ns},
		},
		// Software paths on the A72 cores when an accelerator is faulted
		// offline, scaled from the BF-3 software-only anchors (§III-A's
		// RXP-vs-CPU gap, halved for BF-2's core count).
		Fallbacks: map[nf.ID]FnProfile{
			nf.REM:    {Unit: CPU, Servers: 8, MaxGbps: 2.2, OverheadNS: 6 * us, PipelineNS: 2 * us, JitterMeanNS: 18 * us},
			nf.Crypto: {Unit: CPU, Servers: 8, MaxGbps: 0.8, OverheadNS: 35 * us, PipelineNS: 2 * us, JitterMeanNS: 35 * us},
			nf.Comp:   {Unit: CPU, Servers: 8, MaxGbps: 3, OverheadNS: 5 * us, PipelineNS: 2 * us, JitterMeanNS: 14 * us},
		},
		Power: snicSidePower(),
	}
}

// HostXeon returns the Skylake Xeon Gold 6140 host processor model with
// QAT: 8 cores dedicated to DPDK (matching the paper's methodology) plus
// the QAT accelerator for crypto/compression.
//
// Calibration anchors: Table V host saturation throughputs (≈89–99 Gbps for
// NAT/Count/REM/Crypto, KNN≈31, EMA≈55–62), host p99 12–45 µs at web rates,
// crypto QAT 24–115× the SNIC PKA, compression QAT at 46–72% of the SNIC
// Deflate engine's throughput with 2.1–3.3× its latency, §IV host poll
// power and Fig. 9's 226–333 W envelope.
func HostXeon() *Platform {
	return &Platform{
		Name:     "Host-Xeon",
		LineGbps: 100,
		Profiles: map[nf.ID]FnProfile{
			nf.KVS:   {Unit: CPU, Servers: 8, MaxGbps: 12, OverheadNS: 1 * us, PipelineNS: 2300 * ns, JitterMeanNS: 3 * us},
			nf.Count: {Unit: CPU, Servers: 8, MaxGbps: 99, OverheadNS: 100 * ns, PipelineNS: 2300 * ns, JitterMeanNS: 300 * ns},
			nf.EMA:   {Unit: CPU, Servers: 8, MaxGbps: 60, OverheadNS: 200 * ns, PipelineNS: 2300 * ns, JitterMeanNS: 500 * ns},
			nf.NAT:   {Unit: CPU, Servers: 8, MaxGbps: 91, OverheadNS: 100 * ns, PipelineNS: 2300 * ns, JitterMeanNS: 300 * ns},
			nf.BM25:  {Unit: CPU, Servers: 8, MaxGbps: 3.5, OverheadNS: 3 * us, PipelineNS: 2300 * ns, JitterMeanNS: 7 * us},
			nf.KNN:   {Unit: CPU, Servers: 8, MaxGbps: 31, OverheadNS: 400 * ns, PipelineNS: 2300 * ns, JitterMeanNS: 1 * us},
			nf.Bayes: {Unit: CPU, Servers: 8, MaxGbps: 0.33, OverheadNS: 28 * us, PipelineNS: 2300 * ns, JitterMeanNS: 30 * us},
			// REM runs on host cores (no RXP): fast on simple rulesets,
			// collapses on complex ones (handled by the lite-ruleset
			// variant in experiments via REMComplexHost).
			nf.REM: {Unit: CPU, Servers: 8, MaxGbps: 93, OverheadNS: 100 * ns, PipelineNS: 2300 * ns, JitterMeanNS: 300 * ns},
			// QAT: powerful memory subsystem → crypto far ahead of the
			// SNIC PKA; Deflate behind the SNIC engine (Skylake-era QAT).
			nf.Crypto: {Unit: Accelerator, Servers: 8, MaxGbps: 90, OverheadNS: 150 * ns, PipelineNS: 2500 * ns, JitterMeanNS: 300 * ns},
			nf.Comp:   {Unit: Accelerator, Servers: 8, MaxGbps: 32, OverheadNS: 500 * ns, PipelineNS: 2500 * ns, JitterMeanNS: 1 * us},
		},
		// Software paths on the Xeon cores when QAT is faulted offline
		// (ISA-extension rates, scaled down from the SPR anchors).
		Fallbacks: map[nf.ID]FnProfile{
			nf.Crypto: {Unit: CPU, Servers: 8, MaxGbps: 4, OverheadNS: 5 * us, PipelineNS: 2 * us, JitterMeanNS: 10 * us},
			nf.Comp:   {Unit: CPU, Servers: 8, MaxGbps: 7, OverheadNS: 3 * us, PipelineNS: 2 * us, JitterMeanNS: 6 * us},
		},
		Power: hostSidePower(),
	}
}

// REMComplexHost is the host-CPU profile for the snort_literals ("lite")
// ruleset, where §III-A reports the SNIC accelerator 19× faster than the
// host CPU with 94% lower p99.
func REMComplexHost() FnProfile {
	return FnProfile{Unit: CPU, Servers: 8, MaxGbps: 2.3, OverheadNS: 6 * us, PipelineNS: 2300 * ns, JitterMeanNS: 15 * us}
}

// REMSimpleSNICAccel is the SNIC-accelerator profile for the teakettle
// ruleset, where the host CPU is 93% faster than the SNIC accelerator;
// used by the Fig. 2 'tea' variant.
func REMSimpleSNICAccel() FnProfile {
	return FnProfile{Unit: Accelerator, Servers: 8, MaxGbps: 48, OverheadNS: 400 * ns, PipelineNS: 3 * us, JitterMeanNS: 600 * ns}
}

func snicSidePower() PowerModel {
	return PowerModel{
		ServerIdleW:       194,
		SNICActiveMaxW:    8,
		HostPollW:         70,
		HostSlopeWPerGbps: 0.78,
		SNICSlopeWPerGbps: 0.02,
	}
}

func hostSidePower() PowerModel { return snicSidePower() }

// BlueField3 models the BF-3 SNIC CPU for Fig. 10: 16 cores and 3.5×
// memory bandwidth, but a 200 Gbps line rate. Software-only function
// throughput roughly doubles over BF-2 while remaining far behind SPR.
func BlueField3() *Platform {
	bf2 := BlueField2()
	p := &Platform{Name: "BlueField-3", LineGbps: 200, Profiles: map[nf.ID]FnProfile{}, Power: bf2.Power}
	for id, prof := range bf2.Profiles {
		if prof.Unit != CPU {
			continue // Fig. 10 compares CPUs on software-only functions
		}
		prof.Servers = 16
		prof.MaxGbps *= 2
		prof.JitterMeanNS = prof.JitterMeanNS * 3 / 4
		p.Profiles[id] = prof
	}
	// Software-only REM/Crypto/Comp on the BF-3 CPU for the comparison.
	p.Profiles[nf.REM] = FnProfile{Unit: CPU, Servers: 16, MaxGbps: 4.5, OverheadNS: 5 * us, PipelineNS: 2 * us, JitterMeanNS: 15 * us}
	p.Profiles[nf.Crypto] = FnProfile{Unit: CPU, Servers: 16, MaxGbps: 1.6, OverheadNS: 30 * us, PipelineNS: 2 * us, JitterMeanNS: 30 * us}
	p.Profiles[nf.Comp] = FnProfile{Unit: CPU, Servers: 16, MaxGbps: 6, OverheadNS: 4 * us, PipelineNS: 2 * us, JitterMeanNS: 12 * us}
	return p
}

// SapphireRapids models the SPR host CPU for Fig. 10: core count and
// memory bandwidth scaled similarly to BF-3's step, so the gap persists
// (up to 80% lower BF-3 throughput, up to ~61× higher p99 per the paper).
func SapphireRapids() *Platform {
	host := HostXeon()
	p := &Platform{Name: "SapphireRapids", LineGbps: 200, Profiles: map[nf.ID]FnProfile{}, Power: host.Power}
	for id, prof := range host.Profiles {
		if prof.Unit != CPU {
			continue
		}
		prof.Servers = 16
		prof.MaxGbps *= 2.1
		prof.OverheadNS = prof.OverheadNS * 3 / 4
		prof.JitterMeanNS = prof.JitterMeanNS * 2 / 3
		p.Profiles[id] = prof
	}
	// Software paths for the accelerator functions (SPR CPU with ISA
	// extensions, no QAT in the Fig. 10 CPU-vs-CPU comparison).
	p.Profiles[nf.REM] = FnProfile{Unit: CPU, Servers: 16, MaxGbps: 22, OverheadNS: 1500 * ns, PipelineNS: 1700 * ns, JitterMeanNS: 2500 * ns}
	p.Profiles[nf.Crypto] = FnProfile{Unit: CPU, Servers: 16, MaxGbps: 8, OverheadNS: 3 * us, PipelineNS: 1700 * ns, JitterMeanNS: 7 * us}
	p.Profiles[nf.Comp] = FnProfile{Unit: CPU, Servers: 16, MaxGbps: 14, OverheadNS: 2 * us, PipelineNS: 1700 * ns, JitterMeanNS: 4 * us}
	return p
}

// Interconnect latency constants (§III-A, §VII-C).
const (
	// PCIeCrossNS is one on/off-chip PCIe switch crossing.
	PCIeCrossNS = 900 * ns
	// SNICCloserNS is how much sooner the SNIC CPU sees a packet than
	// the host CPU (~0.3 µs, §III-A).
	SNICCloserNS = 300 * ns
	// UPIHopNS is a socket-to-socket coherent-interconnect crossing
	// (~0.5 µs, §III-A).
	UPIHopNS = 500 * ns
	// HLBLatencyNS is the round-trip latency HAL's FPGA blocks add
	// (800 ns, 45% of it transceiver+MAC; §VII-C).
	HLBLatencyNS = 800 * ns
	// WakeupPenaltyNS is the DPDK power-management wake-up penalty paid
	// by the first packets after host cores were put to sleep (§V-B).
	WakeupPenaltyNS = 30 * us
)
