package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"halsim/internal/sim"
	"halsim/internal/stats"
)

// Sample is one tick of the time-series collector: the LBP's control
// registers, per-side queue and rate signals, drop counters, and the
// instantaneous power decomposition — everything Fig. 9 and the saturation
// figures plot against time.
type Sample struct {
	T sim.Time

	// HLB / LBP control state (HAL mode; zero elsewhere).
	FwdThGbps   float64
	RateRxGbps  float64
	RateFwdGbps float64
	SNICTPGbps  float64

	// Per-side delivered rate over the tick window, computed from
	// cumulative completion counters (never from the power sampler's
	// windows, which this collector must not disturb).
	SNICGbps float64
	HostGbps float64

	// Rx-ring signals: max single-ring occupancy (the LBP's watermark
	// input) and total backlog per side.
	SNICOccMax  int
	HostOccMax  int
	SNICBacklog int
	HostBacklog int

	// Busy cores per side (instantaneous utilization numerator).
	SNICBusy int
	HostBusy int

	// Cumulative counters: completed packets, Rx-ring tail drops, and
	// injected fault drops.
	Completed  uint64
	Drops      uint64
	FaultDrops uint64

	// Instantaneous power decomposition.
	PowerW     float64
	HostPowerW float64
	SNICPowerW float64

	// P99WindowUs is the tick window's own p99 round-trip latency in µs
	// (0 when no packet completed in the window).
	P99WindowUs float64

	// Events is how many engine events fired during the tick window.
	Events uint64
}

// Timeline is a ring buffer of Samples plus the run-cumulative latency
// distribution snapshot the exporter appends.
type Timeline struct {
	period   sim.Time
	capacity int
	samples  []Sample
	head     int // index of oldest sample once the ring wraps
	count    int
	// Truncated counts samples overwritten after the ring filled.
	Truncated uint64

	// winHist accumulates round-trip latencies inside the open tick
	// window; cumHist merges every closed window (the exported run
	// distribution).
	winHist *stats.Histogram
	cumHist *stats.Histogram
}

// NewTimeline returns an empty timeline sampling every period with a ring
// capacity of capacity samples. The backing array grows on demand (short
// runs never pay for the full ring), up to the capacity bound.
func NewTimeline(period sim.Time, capacity int) *Timeline {
	return &Timeline{
		period:   period,
		capacity: capacity,
		winHist:  stats.NewHistogram(),
		cumHist:  stats.NewHistogram(),
	}
}

// RecordLatency folds one completed round trip (in ns) into the open tick
// window's distribution. Called once per delivered response when the
// timeline is enabled.
func (tl *Timeline) RecordLatency(ns int64) { tl.winHist.Record(ns) }

// Push closes the open tick window: the window's p99 lands in s, the
// window's distribution merges into the run distribution, and s joins the
// ring (overwriting the oldest sample when full).
func (tl *Timeline) Push(s Sample) {
	if tl.winHist.Count() > 0 {
		s.P99WindowUs = float64(tl.winHist.P99()) / 1000
		tl.cumHist.Merge(tl.winHist)
		tl.winHist.Reset()
	}
	if tl.count < tl.capacity {
		tl.samples = append(tl.samples, s)
		tl.count++
		return
	}
	tl.samples[tl.head] = s
	tl.head = (tl.head + 1) % tl.count
	tl.Truncated++
}

// Len returns the retained sample count.
func (tl *Timeline) Len() int { return tl.count }

// At returns retained sample i in chronological order.
func (tl *Timeline) At(i int) Sample {
	return tl.samples[(tl.head+i)%tl.count]
}

// Latency returns the run-cumulative latency distribution over every closed
// tick window.
func (tl *Timeline) Latency() *stats.Histogram { return tl.cumHist }

// csvHeader lists the CSV columns, one per Sample field, in export order.
const csvHeader = "t_ns,fwd_th_gbps,rate_rx_gbps,rate_fwd_gbps,snic_tp_gbps," +
	"snic_gbps,host_gbps,snic_occ_max,host_occ_max,snic_backlog,host_backlog," +
	"snic_busy,host_busy,completed,drops,fault_drops,power_w,host_power_w,snic_power_w," +
	"p99_window_us,events"

// f formats a float deterministically and compactly for CSV.
func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV exports the retained samples as one row per tick — the
// `halsim -timeline out.csv` artifact a Fig. 9 plot reads directly.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, csvHeader); err != nil {
		return err
	}
	for i := 0; i < tl.count; i++ {
		s := tl.At(i)
		_, err := fmt.Fprintf(bw, "%d,%s,%s,%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%d\n",
			int64(s.T), f(s.FwdThGbps), f(s.RateRxGbps), f(s.RateFwdGbps), f(s.SNICTPGbps),
			f(s.SNICGbps), f(s.HostGbps), s.SNICOccMax, s.HostOccMax, s.SNICBacklog, s.HostBacklog,
			s.SNICBusy, s.HostBusy, s.Completed, s.Drops, s.FaultDrops,
			f(s.PowerW), f(s.HostPowerW), f(s.SNICPowerW), f(s.P99WindowUs), s.Events)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// latencyBucket is one non-empty bucket of the exported distribution.
type latencyBucket struct {
	LoNS  int64  `json:"lo_ns"`
	HiNS  int64  `json:"hi_ns"`
	Count uint64 `json:"count"`
}

// timelineJSON is the JSON export shape: metadata, the sample series, and
// the run-cumulative latency distribution.
type timelineJSON struct {
	PeriodNS  int64           `json:"period_ns"`
	Truncated uint64          `json:"truncated_samples"`
	Samples   []Sample        `json:"samples"`
	Latency   []latencyBucket `json:"latency_buckets"`
}

// WriteJSON exports the timeline (samples plus latency distribution) as one
// JSON document.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	doc := timelineJSON{
		PeriodNS:  int64(tl.period),
		Truncated: tl.Truncated,
		Samples:   make([]Sample, 0, tl.count),
	}
	for i := 0; i < tl.count; i++ {
		doc.Samples = append(doc.Samples, tl.At(i))
	}
	tl.cumHist.ForEachBucket(func(lo, hi int64, count uint64) bool {
		doc.Latency = append(doc.Latency, latencyBucket{LoNS: lo, HiNS: hi, Count: count})
		return true
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
