package server

import (
	"halsim/internal/cxl"
	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/rng"
	"halsim/internal/sim"
	"halsim/internal/trace"
)

// maxGapNS caps a constant-rate generator's inter-arrival draw (an hour of
// simulated time — effectively "no more packets this run") so float gaps
// never overflow sim.Time.
const maxGapNS = float64(3600 * sim.Second)

// Burst coalescing bounds: one sendNext event expands up to maxBurst
// arrivals whose analytic send times span at most maxBurstSpan. The span
// cap must stay below every periodic process's period (the shortest is the
// HAL monitor's 10 µs window): a tick at k·P is scheduled at (k-1)·P, so as
// long as a burst's first-hop events are scheduled later than that — which
// the span cap guarantees — a tick sharing an instant with a pre-scheduled
// arrival keeps its original FIFO position.
const (
	maxBurst     = 32
	maxBurstSpan = 4 * sim.Microsecond
)

// client is the open-loop packet generator of §VI: it offers traffic at a
// controlled rate — constant for the sweep experiments, log-normal
// modulated for the datacenter workloads — independent of how the server
// keeps up.
type client struct {
	eng *sim.Engine
	// rng draws sizes, gaps and mix tags; payload is rekeyed per request,
	// so request k's payload is drawn from (seed, Payload, k) alone.
	rng     rng.Rand
	payload rng.Rand
	seed    int64
	addr    packet.Addr
	dst     packet.Addr

	rateGbps float64
	sizes    *trace.SizeDist
	gen      payloadGen // optional: real request payloads
	genAlt   payloadGen // payloads for mix-tagged packets
	// emit hands a freshly created packet to the server at its arrival
	// time. With burst coalescing the handler may run before at — the
	// receiver must schedule the packet's first hop at absolute at-relative
	// times, not relative to the engine clock.
	emit func(*packet.Packet, sim.Time)

	// mixFrac is the probability a packet carries FnTag 1 (the second
	// function of a mix); mixShiftAt switches from mixFracBefore to
	// mixFrac at that instant, modeling a workload change at run time.
	mixFrac       float64
	mixFracBefore float64
	mixShiftAt    sim.Time

	tracegen *trace.Generator
	// epochTick re-draws a trace's rate every TraceEpoch.
	epochTick sim.Ticker

	// warmupEnd gates the measured counters: only packets created at
	// or after it count toward offered load, so every mode is measured
	// over the same packet population.
	warmupEnd sim.Time

	// endAt bounds burst expansion: no packet is created past it. The
	// server sets it to the run duration — the instant after which a
	// per-packet sendNext event would either never fire (RunUntil cutoff)
	// or find the client stopped (drained runs stop exactly at the
	// duration) — so expanding a burst early creates exactly the packets
	// the one-event-per-packet loop would have. Zero disables expansion.
	endAt sim.Time

	// pool recycles request packets; the completion and drop paths release
	// them back.
	pool *packet.Pool
	// sendNextCall and rearmCall are the arrival loop's handlers, bound
	// once in start so per-packet scheduling captures no closure (a
	// method value materialized at a call site allocates; a stored field
	// does not).
	sendNextCall sim.Call
	rearmCall    sim.Call

	seq uint64
	offered
	stopped bool
}

// offered counts the traffic offered to a server: sentPkts/sentBytes
// from warmup on (the measured offered load), totalPkts every packet ever
// offered, warmup included — the packet-conservation audit's "offered"
// side.
type offered struct {
	sentPkts  uint64
	sentBytes uint64
	totalPkts uint64
}

// payloadGen makes one function's request payloads.
type payloadGen struct {
	gen nf.RequestGen
	// dry is set when nothing in the run reads the payload: each request
	// then carries only its length.
	dry bool
}

// functions are a run's network functions and their request generators:
// the primary function, and with Config.MixOn the mix function whose
// payloads FnTag 1 packets carry.
type functions struct {
	fn, mix     nf.Function
	gen, mixGen nf.RequestGen
}

func newFunctions(cfg Config) (functions, error) {
	var f functions
	var err error
	f.fn, f.gen, err = newFn(cfg.Fn, cfg.FnConfig)
	if err == nil && cfg.MixOn {
		f.mix, f.mixGen, err = newFn(cfg.MixFn, "")
	}
	return f, err
}

// stateConsumer returns fn as a StateLines consumer when it keeps state
// and cfg.Fabric gives that state a shared region, else nil. Outside
// Config.Functional, which runs every function on every payload, it is the
// only reader of payload bytes, and it reads only the primary function's.
func stateConsumer(fn nf.Function, cfg Config) nf.StateFunction {
	if sf, ok := fn.(nf.StateFunction); ok && cfg.Fabric != cxl.NoFabric {
		return sf
	}
	return nil
}

// newClient builds the run's client on eng and pool: requests carry
// payloads from f's generators, and each packet is handed to emit at its
// arrival instant. A request's payload is rendered only when something in
// the run reads its bytes; otherwise it carries just the length. cfg and rc
// must be normalized.
func newClient(cfg Config, rc RunConfig, eng *sim.Engine, pool *packet.Pool, f functions, emit func(*packet.Packet, sim.Time)) (*client, error) {
	c := &client{
		eng:           eng,
		pool:          pool,
		warmupEnd:     rc.Warmup,
		mixFrac:       cfg.MixFraction,
		mixFracBefore: cfg.MixFractionBefore,
		mixShiftAt:    cfg.MixShiftAt,
		rng:           rng.Stream(cfg.Seed, rng.Client, 0),
		seed:          cfg.Seed,
		addr:          clientAddr,
		dst:           snicAddr,
		rateGbps:      rc.RateGbps,
		sizes:         rc.Sizes,
		gen:           payloadGen{gen: f.gen, dry: !cfg.Functional && stateConsumer(f.fn, cfg) == nil},
		emit:          emit,
		endAt:         rc.Duration,
	}
	if f.mixGen != nil {
		c.genAlt = payloadGen{gen: f.mixGen, dry: !cfg.Functional}
	}
	if rc.Workload != nil {
		g, err := trace.New(*rc.Workload, cfg.Seed)
		if err != nil {
			return nil, err
		}
		c.tracegen = g
	}
	return c, nil
}

// start arms the arrival process (and the trace epoch timer, if tracing).
func (c *client) start() {
	c.sendNextCall = c.sendNext
	c.rearmCall = c.rearm
	if c.tracegen != nil {
		c.rateGbps = c.tracegen.NextRateGbps()
		c.eng.Every(&c.epochTick, TraceEpoch, epochTick, c)
	}
	c.scheduleNext()
}

// epochTick draws the trace's next epoch rate, until the client stops.
func epochTick(a any, _ int64) {
	if c := a.(*client); !c.stopped {
		c.rateGbps = c.tracegen.NextRateGbps()
	}
}

// stop halts the arrival process (idempotent). The epoch timer re-draws
// nothing once stopped; a drain cancels it with the engine's other
// tickers.
func (c *client) stop() { c.stopped = true }

// scheduleNext draws the next interarrival. Arrivals are Poisson within an
// epoch: exponential gaps with mean wireBits/rate, which produces the
// natural queueing tails a paced generator would hide. Gaps longer than an
// epoch are censored into a retry at the epoch boundary — by then the
// trace has re-drawn the rate, so a near-zero epoch cannot stall the
// generator for the rest of the run, and the resulting per-epoch Bernoulli
// thinning still realizes the correct sparse-regime rate.
func (c *client) scheduleNext() {
	if c.stopped {
		return
	}
	size, gap, ok := c.nextGap()
	if !ok {
		c.eng.ScheduleCall(TraceEpoch, c.rearmCall, nil, 0)
		return
	}
	c.eng.ScheduleCall(gap, c.sendNextCall, nil, int64(size))
}

// nextGap draws the next packet's wire size and then its exponential gap
// from the previous send. ok is false when the draw is censored into a
// retry one epoch later: at a zero epoch rate (nothing is drawn) or when a
// trace gap outruns the epoch. Other gaps are clamped to maxGapNS.
func (c *client) nextGap() (size int, gap sim.Time, ok bool) {
	if c.rateGbps <= 0 {
		return 0, 0, false
	}
	size = c.sizes.Sample(&c.rng)
	meanGapNS := float64(size) * 8 / c.rateGbps
	gapF := c.rng.ExpFloat64() * meanGapNS
	// Compare in the float domain: a near-zero epoch rate can push the
	// gap past int64 range, and converting first would wrap negative.
	if c.tracegen != nil && gapF > float64(TraceEpoch) {
		return 0, 0, false
	}
	return size, sim.Time(min(gapF, maxGapNS)), true
}

// sendNext fires one arrival burst (n carries the first packet's drawn wire
// size). Instead of one event per packet, the handler expands up to
// maxBurst arrivals inline: each sub-arrival's send time is the same
// analytic t_{i+1} = t_i + ⌊gap⌋ the per-packet loop would have produced,
// and the client's stream is consulted in the identical order (mix draw
// for packet i, then size/gap draws for packet i+1), so every packet carries
// byte-identical contents and timestamps. Expansion stops — handing the
// remainder to a fresh event at the next send time — at the burst caps, at
// endAt, and at a trace-epoch boundary (the epoch ticker re-draws the rate
// there, and its event precedes any burst continuation at the same
// instant, exactly as in the per-packet schedule).
func (c *client) sendNext(_ any, n int64) {
	if c.stopped {
		return
	}
	start := c.eng.Now()
	t := start
	size := int(n)
	for burst := 1; ; burst++ {
		c.sendAt(size, t)
		next, gap, ok := c.nextGap()
		if !ok {
			c.eng.AtCall(t+TraceEpoch, c.rearmCall, nil, 0)
			return
		}
		nt := t + gap
		if burst >= maxBurst || nt-start > maxBurstSpan || nt > c.endAt ||
			(c.tracegen != nil && nt >= c.nextEpochBoundary(t)) {
			c.eng.AtCall(nt, c.sendNextCall, nil, int64(next))
			return
		}
		t = nt
		size = next
	}
}

// nextEpochBoundary returns the first trace-epoch boundary after t. The
// epoch ticker starts at engine time zero, so boundaries sit at multiples
// of the epoch.
func (c *client) nextEpochBoundary(t sim.Time) sim.Time {
	return (t/TraceEpoch + 1) * TraceEpoch
}

// rearm is the closure-free epoch-boundary retry handler.
func (c *client) rearm(any, int64) {
	c.scheduleNext()
}

// sendAt creates one packet whose arrival instant is at (≥ the engine
// clock when a burst was expanded early). Everything time-dependent — the
// mix-shift comparison, CreatedAt, the warmup gate — uses at, so the
// packet is indistinguishable from one created by an event firing at at.
func (c *client) sendAt(size int, at sim.Time) {
	frac := c.mixFrac
	if c.mixShiftAt > 0 && at < c.mixShiftAt {
		frac = c.mixFracBefore
	}
	tag := uint8(0)
	if frac > 0 && c.rng.Float64() < frac {
		tag = 1
	}
	g := &c.gen
	if tag == 1 && c.genAlt.gen != nil {
		g = &c.genAlt
	}
	// Request seq draws its payload from a stream keyed by seq; the dry
	// path draws only the payload's length.
	c.seq++
	c.payload.Seed(c.seed, rng.Payload, c.seq)
	var payload []byte
	var n int
	if g.dry {
		n = g.gen.NextLen(&c.payload)
	} else {
		payload = g.gen.NextInto(&c.payload, c.pool.GetBuf())
		n = len(payload)
	}
	p := c.pool.Get(c.addr, c.dst, uint16(4000+c.seq%1000), 9000, payload)
	p.ID = c.seq
	p.WireLen = size
	if real := n + packet.HeaderOverhead; real > p.WireLen {
		p.WireLen = real
	}
	p.FnTag = tag
	p.CreatedAt = int64(at)
	c.totalPkts++
	if at >= c.warmupEnd {
		c.sentPkts++
		c.sentBytes += uint64(p.WireLen)
	}
	c.emit(p, at)
}
