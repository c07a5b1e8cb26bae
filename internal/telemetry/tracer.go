package telemetry

import (
	"bufio"
	"encoding/json"
	"io"

	"halsim/internal/sim"
)

// EventKind labels one span event in a packet's lifecycle.
type EventKind uint8

// Lifecycle event kinds, in the order a packet normally meets them.
const (
	KindIngress  EventKind = iota // wire arrival at the server
	KindDivert                    // HLB director decision (diverted to host)
	KindKeep                      // HLB director decision (kept on SNIC)
	KindArrive                    // eSwitch match delivered to a side's rings
	KindEnqueue                   // placed on a station core's Rx ring
	KindServe                     // service span on a station core
	KindComplete                  // function finished; response built
	KindMerge                     // traffic merger rewrote a host response
	KindResponse                  // response delivered back to the client
	KindDrop                      // packet lost (args carry the reason)
	numKinds
)

var kindNames = [numKinds]string{
	"ingress", "divert", "keep", "arrive", "enqueue",
	"serve", "complete", "merge", "response", "drop",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "event"
}

// DropReason says why a drop event fired.
type DropReason uint8

// Drop reasons.
const (
	DropRingFull DropReason = iota // Rx ring tail drop
	DropRxFault                    // injected descriptor-corruption fault
	DropNoCore                     // no station core alive to take it
	numDropReasons
)

var dropNames = [numDropReasons]string{"ring-full", "rx-fault", "no-core"}

func (d DropReason) String() string {
	if int(d) < len(dropNames) {
		return dropNames[d]
	}
	return "drop"
}

// StationID identifies the simulated component an event happened on; it
// becomes the Chrome trace's thread id, so Perfetto renders one lane per
// component.
type StationID uint8

// The fixed component lanes.
const (
	StWire   StationID = iota // client-facing wire
	StHLB                     // HAL's dataplane blocks
	StSNIC                    // SNIC processor station (stage 1)
	StHost                    // host processor station (stage 1)
	StSNIC2                   // SNIC pipeline stage 2
	StHost2                   // host pipeline stage 2
	StSLBFwd                  // SLB forwarding cores
	numStations
)

var stationNames = [numStations]string{
	"wire", "hlb", "snic", "host", "snic2", "host2", "slb-fwd",
}

func (s StationID) String() string {
	if int(s) < len(stationNames) {
		return stationNames[s]
	}
	return "station"
}

// Span is one recorded event, stored by value. Dur is zero for instants.
// Arg carries a kind-specific scalar: the drop reason for KindDrop, the
// ring occupancy after enqueue for KindEnqueue, the wire length for
// KindServe.
type Span struct {
	T       sim.Time
	Dur     sim.Time
	Kind    EventKind
	Station StationID
	Core    int16
	Pkt     uint64
	Arg     int64
}

// Tracer records sampled packet-lifecycle spans. Sampling is deterministic:
// packet IDs congruent to 1 modulo every are traced (client packet IDs
// start at 1, so the very first packet of a run is always in the sample).
// Drop events are recorded for every packet regardless of sampling — drops
// are rare and each one is a finding.
type Tracer struct {
	every    uint64
	capacity int
	events   []Span
	// Truncated counts events discarded after the cap was reached.
	Truncated uint64
}

// NewTracer returns a tracer sampling 1-in-every packets, retaining at most
// capacity events. The event buffer grows on demand up to the bound.
func NewTracer(every, capacity int) *Tracer {
	if every < 1 {
		every = 1
	}
	return &Tracer{every: uint64(every), capacity: capacity}
}

// Sampled reports whether packet id is in the deterministic sample. Safe on
// a nil tracer (hook sites combine the nil check and the sample check).
func (t *Tracer) Sampled(id uint64) bool {
	return t != nil && id%t.every == 1%t.every
}

// Emit records one span event.
func (t *Tracer) Emit(s Span) {
	if len(t.events) >= t.capacity {
		t.Truncated++
		return
	}
	t.events = append(t.events, s)
}

// Len returns the retained event count.
func (t *Tracer) Len() int { return len(t.events) }

// At returns retained event i in emission order.
func (t *Tracer) At(i int) Span { return t.events[i] }

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array (the JSON shape Perfetto and chrome://tracing load). Timestamps and
// durations are microseconds; we emit fractional µs to keep ns precision.
type chromeEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	S    string   `json:"s,omitempty"` // instant-event scope
	// Args is chromeArgs for packet spans; WriteProfTrace's recorder lanes
	// carry their own payload types (the marshaled bytes of packet spans
	// are unchanged by the loose typing).
	Args any `json:"args"`
}

// chromeArgs is the per-event payload. Pointer fields keep absent values
// out of the JSON entirely.
type chromeArgs struct {
	Pkt    uint64  `json:"pkt"`
	Core   *int16  `json:"core,omitempty"`
	Occ    *int64  `json:"occ,omitempty"`
	Reason string  `json:"reason,omitempty"`
	Wire   *int64  `json:"wire_len,omitempty"`
	Name   *string `json:"name,omitempty"` // metadata events: the lane name
}

// chromeTrace is the top-level trace document.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// us converts simulated ns to trace µs.
func us(t sim.Time) float64 { return float64(t) / 1000 }

// chrome converts one Span to its Chrome trace-event form.
func (s Span) chrome() chromeEvent {
	ev := chromeEvent{
		Name: s.Kind.String(),
		Cat:  "packet",
		Ts:   us(s.T),
		Pid:  1,
		Tid:  int(s.Station),
	}
	args := chromeArgs{Pkt: s.Pkt}
	if s.Core >= 0 {
		core := s.Core
		args.Core = &core
	}
	switch {
	case s.Dur > 0:
		ev.Ph = "X"
		d := us(s.Dur)
		ev.Dur = &d
	default:
		ev.Ph = "i"
		ev.S = "t"
	}
	switch s.Kind {
	case KindDrop:
		ev.Cat = "drop"
		args.Reason = DropReason(s.Arg).String()
	case KindEnqueue:
		occ := s.Arg
		args.Occ = &occ
	case KindServe, KindIngress:
		wire := s.Arg
		args.Wire = &wire
	}
	ev.Args = args
	return ev
}

// WriteTrace exports every retained span — plus one metadata event naming
// each component lane — as Chrome trace-event JSON. The output is
// deterministic: events appear in emission order and no wall-clock state is
// written.
func (t *Tracer) WriteTrace(w io.Writer) error {
	doc := chromeTrace{DisplayTimeUnit: "ns"}
	doc.TraceEvents = make([]chromeEvent, 0, len(t.events)+int(numStations))
	for tid := StationID(0); tid < numStations; tid++ {
		name := tid.String()
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M",
			Pid: 1, Tid: int(tid),
			Args: chromeArgs{Name: &name},
		})
	}
	for _, s := range t.events {
		doc.TraceEvents = append(doc.TraceEvents, s.chrome())
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}
