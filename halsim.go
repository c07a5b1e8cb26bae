// Package halsim is the public API of the HAL reproduction: a
// discrete-event simulation of SNIC-host cooperative computing with
// hardware-assisted load balancing (HAL, ISCA 2024).
//
// The package re-exports the composition layer (configure a server, offer
// traffic, collect throughput/p99/power/energy-efficiency) and the
// experiment drivers that regenerate every table and figure of the paper's
// evaluation. Deeper substrates — the event engine, packet formats, DPDK
// emulation, the coherence directory, the ten network functions — live
// under internal/ and are exercised through this surface.
//
// Quickstart:
//
//	res, err := halsim.Run(
//	    halsim.Config{Mode: halsim.HAL, Fn: halsim.NAT},
//	    halsim.RunConfig{Duration: 500 * halsim.Millisecond, RateGbps: 80},
//	)
//	fmt.Printf("%.1f Gbps at p99=%.0fµs using %.0f W\n",
//	    res.AvgGbps, res.P99us, res.AvgPowerW)
package halsim

import (
	"halsim/internal/cluster"
	"halsim/internal/cxl"
	"halsim/internal/experiments"
	"halsim/internal/fault"
	"halsim/internal/nf"
	"halsim/internal/platform"
	"halsim/internal/scenario"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
	"halsim/internal/trace"
)

// Time is simulated time in nanoseconds.
type Time = sim.Time

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Mode selects who processes packets: the host processor, the SNIC
// processor, HAL cooperative balancing, or the software balancer baseline.
type Mode = server.Mode

// Operating modes.
const (
	HostOnly = server.HostOnly
	SNICOnly = server.SNICOnly
	HAL      = server.HAL
	SLB      = server.SLB
	SLBHost  = server.SLBHost
)

// FnID identifies one of the ten benchmark network functions (Table IV).
type FnID = nf.ID

// The benchmark functions.
const (
	KVS    = nf.KVS
	Count  = nf.Count
	EMA    = nf.EMA
	NAT    = nf.NAT
	BM25   = nf.BM25
	KNN    = nf.KNN
	Bayes  = nf.Bayes
	REM    = nf.REM
	Crypto = nf.Crypto
	Comp   = nf.Comp
)

// AllFunctions lists every benchmark function.
var AllFunctions = nf.All

// ParseFunction resolves a function name ("NAT", "REM", ...).
func ParseFunction(name string) (FnID, error) { return nf.ParseID(name) }

// Config describes a server setup; RunConfig one experiment run; Result
// the collected metrics. See the server package for field documentation.
type (
	Config    = server.Config
	RunConfig = server.RunConfig
	Result    = server.Result
)

// ClusterConfig asks for a fleet: Config.Cluster = &ClusterConfig{Servers:
// N} runs N complete servers (up to 4096) behind one shared ingress and a
// modeled ToR fabric — flat star by default, or a two-tier pod/ToR/spine
// topology with oversubscribable uplinks when Pods >= 2 — each server
// group its own logical process under Config.Shards. Shards apply to
// fleets only: Run rejects Shards > 1 on a single server, which always
// runs serially. The Result is the fleet aggregate; latency percentiles
// are ingress round trips, fabric included.
type ClusterConfig = server.ClusterConfig

// Run executes one simulation and returns its metrics. A Config with
// Cluster set runs a fleet; otherwise a single server.
func Run(cfg Config, rc RunConfig) (Result, error) {
	if cfg.Cluster != nil {
		return cluster.Run(cfg, rc)
	}
	return server.Run(cfg, rc)
}

// Workload identifies a datacenter traffic trace (Fig. 8).
type Workload = trace.Workload

// The three Meta workloads.
const (
	Web    = trace.Web
	Cache  = trace.Cache
	Hadoop = trace.Hadoop
)

// Workloads lists the three traces.
var Workloads = trace.Workloads

// ParseWorkload resolves a workload name ("web", "cache", "hadoop").
func ParseWorkload(name string) (Workload, error) { return trace.ParseWorkload(name) }

// FaultPlan is a deterministic list of fault windows — core crashes,
// accelerator degradation, Rx-ring drop faults, telemetry blackout,
// whole-server blackouts — injected into a run via Config.Faults. Same
// seed + same plan ⇒ identical results. Build one with NewFaultPlan and
// its chainable methods (CrashSNICCores, DropSNICRx, BlackoutTelemetry,
// DegradeSNICAccel, CrashServer, ...) or append to its Windows. Windows
// on one server that drive the same mechanism may touch but not overlap.
// A fleet takes the same plan: each window's Server index names the
// server it hits (0 by default, the only server of a single-server run).
type FaultPlan = fault.Plan

// FaultWindow is one fault of a FaultPlan.
type FaultWindow = fault.Window

// NewFaultPlan returns an empty fault plan with the given fault seed.
func NewFaultPlan(seed int64) *FaultPlan { return fault.NewPlan(seed) }

// PhaseStats are the per-window metrics of a phased run (Result.Phases,
// cut at RunConfig.PhaseMarks).
type PhaseStats = server.PhaseStats

// TelemetryConfig opts a run into the observability layer via
// Config.Telemetry: a per-tick time series (Result.Timeline), sampled
// packet-lifecycle tracing (Result.Trace, Chrome trace-event JSON), and a
// Prometheus-style metric registry (Result.Metrics). The zero value keeps
// every collector off at zero cost, and enabling them never changes the
// simulation's Result — telemetry is read-only.
type TelemetryConfig = telemetry.Config

// Timeline is the per-tick time-series ring a telemetry-enabled run
// returns; export it with WriteCSV or WriteJSON.
type Timeline = telemetry.Timeline

// Tracer holds the sampled packet-lifecycle spans; export with WriteTrace
// (loadable in Perfetto or chrome://tracing).
type Tracer = telemetry.Tracer

// MetricRegistry is the run's named counter/gauge set; export with
// WriteText or serve it live via Handler.
type MetricRegistry = telemetry.Registry

// NewMetricRegistry builds a standalone registry, e.g. to share one
// /metrics endpoint across sequential runs via TelemetryConfig.Registry.
func NewMetricRegistry() *MetricRegistry { return telemetry.NewRegistry() }

// Platform is a processor-complex model (service profiles + power).
type Platform = platform.Platform

// The four platform models.
var (
	BlueField2     = platform.BlueField2
	HostXeon       = platform.HostXeon
	BlueField3     = platform.BlueField3
	SapphireRapids = platform.SapphireRapids
)

// FabricKind selects the SNIC attachment for stateful functions (§V-C);
// set it as Config.Fabric. Each run builds its own coherence directory for
// the host and SNIC processors. Only CXL admits stateful functions in
// HAL/SLB modes; the zero value gives stateful functions no shared state.
type FabricKind = cxl.FabricKind

// Attachment kinds.
const (
	PCIe = cxl.PCIe
	CXL  = cxl.CXL
)

// Scenario is a declarative run harness parsed from a YAML file: a run
// template, timed fault events and/or a seeded chaos generator, and a
// block of assertions checked against the run's results. Execute runs it;
// the returned ScenarioOutcome renders Markdown/HTML reports. Same scenario
// + same seed ⇒ byte-identical reports, at any shard count.
type Scenario = scenario.Scenario

// ScenarioOutcome is one executed scenario: compiled inputs, Result, and
// every assertion's verdict (Passed is the overall verdict).
type ScenarioOutcome = scenario.Outcome

// ScenarioOverrides are the knobs a caller may vary without editing the
// scenario file (seed, shard count).
type ScenarioOverrides = scenario.Overrides

// ParseScenario decodes and validates one scenario document.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// ExperimentOptions controls experiment fidelity (durations, seed).
type ExperimentOptions = experiments.Options

// ExperimentTable is a rendered experiment artifact.
type ExperimentTable = experiments.Table

// ValidationEvidence is what Validate scores: the Fig9, Fig5, Table5 and
// CompareSNICHost results, from those drivers or built by hand.
type ValidationEvidence = experiments.Evidence

// Experiment drivers, one per paper artifact. Each returns results whose
// Table/Tables methods render the corresponding figure or table; Fig4 and
// Validate read Fig9's (and the other drivers') results and simulate nothing.
var (
	CompareSNICHost = experiments.CompareSNICHost // Fig 2 + Fig 3
	Fig4            = experiments.Fig4
	Fig5            = experiments.Fig5
	Fig8            = experiments.Fig8
	Fig9            = experiments.Fig9
	Fig10           = experiments.Fig10
	Table1          = experiments.Table1
	Table2          = experiments.Table2
	Table5          = experiments.Table5
	Costs           = experiments.Costs
	Faults          = experiments.Faults
	Validate        = experiments.Validate
)
