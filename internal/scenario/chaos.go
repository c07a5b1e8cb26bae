package scenario

import (
	"fmt"
	"sort"
	"strings"

	"halsim/internal/rng"
	"halsim/internal/scenario/yaml"
	"halsim/internal/sim"
)

// ChaosSpec is the seeded stress generator: it draws a
// randomized-but-reproducible schedule of fault windows from its own RNG
// stream, so the same scenario seed replays the same chaos — at any shard
// count. Knobs bound the failure rate (events over a window), burstiness
// (max_overlap), and the kind mix (weights).
type ChaosSpec struct {
	// Seed drives the generator; 0 inherits the run seed.
	Seed int64
	// Events is how many fault windows to draw (a draw that cannot be
	// placed under the overlap rules is skipped, so this is a ceiling).
	Events int
	// Window bounds where fault windows may start; zero means
	// [20%, 80%] of the run.
	WindowFrom, WindowTo sim.Time
	// MeanDuration/MinDuration shape each window's length: MinDuration
	// plus an exponential draw with the given mean (default 500µs / 50µs).
	MeanDuration sim.Time
	MinDuration  sim.Time
	// MaxOverlap caps how many fault windows may be simultaneously
	// active (burstiness; default 2). Windows of the same kind never
	// overlap regardless, so paired start/stop events stay well nested.
	MaxOverlap int
	// Kinds weights the draw across event kinds; empty means every kind
	// at weight 1.
	Kinds []KindWeight
	// MaxCores bounds a chaotic core-crash (1..MaxCores cores; default 4).
	MaxCores int
	// MaxDropProb bounds a chaotic rx-drop's probability (default 0.3).
	MaxDropProb float64

	Line int
}

// KindWeight is one entry of the chaos kind mix.
type KindWeight struct {
	Kind   string
	Weight float64
}

func (s *Scenario) parseChaos(n *yaml.Node) error {
	if n == nil {
		return nil
	}
	if err := checkKeys(n, "chaos", "seed", "events", "window", "mean_duration",
		"min_duration", "max_overlap", "kinds", "max_cores", "max_drop_prob"); err != nil {
		return err
	}
	c := &ChaosSpec{Line: n.Line}
	var err error
	if v := n.Get("seed"); v != nil {
		if c.Seed, err = v.Int64(); err != nil {
			return errf("chaos.seed: %v", err)
		}
	}
	if v := n.Get("events"); v != nil {
		e, err := v.Int64()
		if err != nil {
			return errf("chaos.events: %v", err)
		}
		c.Events = int(e)
	}
	if v := n.Get("window"); v != nil {
		str, err := v.Scalar()
		if err != nil {
			return errf("chaos.window: %v", err)
		}
		if c.WindowFrom, c.WindowTo, err = timeRange(str, v.Line, "chaos.window"); err != nil {
			return err
		}
	}
	if v := n.Get("mean_duration"); v != nil {
		if c.MeanDuration, err = dur(v, "chaos.mean_duration"); err != nil {
			return err
		}
	}
	if v := n.Get("min_duration"); v != nil {
		if c.MinDuration, err = dur(v, "chaos.min_duration"); err != nil {
			return err
		}
	}
	if v := n.Get("max_overlap"); v != nil {
		o, err := v.Int64()
		if err != nil {
			return errf("chaos.max_overlap: %v", err)
		}
		c.MaxOverlap = int(o)
	}
	if v := n.Get("kinds"); v != nil {
		if v.Kind != yaml.MapNode {
			return errf("chaos.kinds: line %d: want a mapping of kind: weight", v.Line)
		}
		for _, k := range v.Keys {
			known := false
			for _, want := range chaosKinds {
				if k == want {
					known = true
					break
				}
			}
			if !known {
				return errf("chaos.kinds: line %d: unknown kind %q (want %s)",
					v.Get(k).Line, k, strings.Join(chaosKinds, ", "))
			}
			w, err := v.Get(k).Float()
			if err != nil {
				return errf("chaos.kinds.%s: %v", k, err)
			}
			if w < 0 {
				return errf("chaos.kinds.%s: line %d: negative weight %g", k, v.Get(k).Line, w)
			}
			c.Kinds = append(c.Kinds, KindWeight{Kind: k, Weight: w})
		}
	}
	if v := n.Get("max_cores"); v != nil {
		m, err := v.Int64()
		if err != nil {
			return errf("chaos.max_cores: %v", err)
		}
		c.MaxCores = int(m)
	}
	if v := n.Get("max_drop_prob"); v != nil {
		if c.MaxDropProb, err = v.Float(); err != nil {
			return errf("chaos.max_drop_prob: %v", err)
		}
	}
	s.Chaos = c
	return nil
}

// withDefaults fills the zero knobs for a run of the given duration.
func (c ChaosSpec) withDefaults(runSeed int64, duration sim.Time) ChaosSpec {
	if c.Seed == 0 {
		c.Seed = runSeed
	}
	if c.Events == 0 {
		c.Events = 8
	}
	if c.WindowTo == 0 {
		c.WindowFrom = duration / 5
		c.WindowTo = duration * 4 / 5
	}
	if c.MeanDuration == 0 {
		c.MeanDuration = 500 * sim.Microsecond
	}
	if c.MinDuration == 0 {
		c.MinDuration = 50 * sim.Microsecond
	}
	if c.MaxOverlap == 0 {
		c.MaxOverlap = 2
	}
	if len(c.Kinds) == 0 {
		for _, k := range chaosKinds {
			c.Kinds = append(c.Kinds, KindWeight{Kind: k, Weight: 1})
		}
	}
	if c.MaxCores == 0 {
		c.MaxCores = 4
	}
	if c.MaxDropProb == 0 {
		c.MaxDropProb = 0.3
	}
	return c
}

func (c *ChaosSpec) validate(duration sim.Time) error {
	if c.Events < 0 {
		return errf("chaos.events: negative event count %d", c.Events)
	}
	if c.WindowTo != 0 && c.WindowTo > duration {
		return errf("chaos.window: ends at %v, past the run's duration %v", c.WindowTo, duration)
	}
	if c.MaxOverlap < 0 {
		return errf("chaos.max_overlap: negative")
	}
	if c.MaxCores < 0 {
		return errf("chaos.max_cores: negative")
	}
	if c.MaxDropProb < 0 || c.MaxDropProb > 1 {
		return errf("chaos.max_drop_prob: %g outside [0, 1]", c.MaxDropProb)
	}
	var total float64
	for _, kw := range c.Kinds {
		total += kw.Weight
	}
	if len(c.Kinds) > 0 && total <= 0 {
		return errf("chaos.kinds: line %d: weights sum to zero", c.Line)
	}
	return nil
}

// chaosWindow is one accepted draw.
type chaosWindow struct {
	from, to sim.Time
	kind     string
	cores    int
	dropProb float64
}

// generate draws the chaos schedule as EventSpecs (sorted by start time) so
// the plan compiler and the report treat chaotic and explicit events
// identically. Deterministic: the spec seed's chaos stream, drawn in a
// fixed order, no map iteration.
func (c ChaosSpec) generate(runSeed int64, duration sim.Time) ([]EventSpec, error) {
	c = c.withDefaults(runSeed, duration)
	if err := c.validate(duration); err != nil {
		return nil, err
	}
	r := rng.Stream(c.Seed, rng.Chaos, 0)
	var total float64
	for _, kw := range c.Kinds {
		total += kw.Weight
	}
	span := c.WindowTo - c.WindowFrom
	if span <= c.MinDuration {
		return nil, errf("chaos.window: %v..%v leaves no room for %v fault windows",
			c.WindowFrom, c.WindowTo, c.MinDuration)
	}
	var accepted []chaosWindow
	overlapOK := func(w chaosWindow) bool {
		// Same-kind windows must not overlap (start/stop pairs must nest
		// cleanly); across kinds at most MaxOverlap may be active at once.
		active := 1
		for _, a := range accepted {
			if w.from < a.to && a.from < w.to {
				if a.kind == w.kind {
					return false
				}
				active++
			}
		}
		return active <= c.MaxOverlap
	}
	for i := 0; i < c.Events; i++ {
		// Up to 8 placement attempts per event; a draw that cannot be
		// placed is skipped, keeping generation deterministic and finite.
		for attempt := 0; attempt < 8; attempt++ {
			pick := r.Float64() * total
			kind := c.Kinds[len(c.Kinds)-1].Kind
			for _, kw := range c.Kinds {
				if pick < kw.Weight {
					kind = kw.Kind
					break
				}
				pick -= kw.Weight
			}
			length := c.MinDuration + sim.Time(r.ExpFloat64()*float64(c.MeanDuration))
			from := c.WindowFrom + sim.Time(r.Int64N(int64(span-c.MinDuration)))
			to := from + length
			if to > c.WindowTo {
				to = c.WindowTo
			}
			if to > duration {
				to = duration
			}
			if to-from < c.MinDuration {
				continue
			}
			w := chaosWindow{from: from, to: to, kind: kind}
			switch kind {
			case "core-crash":
				w.cores = 1 + r.Intn(c.MaxCores)
			case "rx-drop":
				w.dropProb = 0.05 + r.Float64()*(c.MaxDropProb-0.05)
				if w.dropProb > c.MaxDropProb {
					w.dropProb = c.MaxDropProb
				}
			}
			if !overlapOK(w) {
				continue
			}
			accepted = append(accepted, w)
			break
		}
	}
	sort.SliceStable(accepted, func(i, j int) bool { return accepted[i].from < accepted[j].from })
	events := make([]EventSpec, 0, len(accepted))
	for _, w := range accepted {
		events = append(events, EventSpec{
			At:       w.from,
			For:      w.to - w.from,
			Kind:     w.kind,
			Side:     "snic",
			Cores:    w.cores,
			DropProb: w.dropProb,
		})
	}
	if len(accepted) == 0 && c.Events > 0 {
		return nil, errf("chaos: no fault window could be placed (window %v..%v too tight for max_overlap %d)",
			c.WindowFrom, c.WindowTo, c.MaxOverlap)
	}
	return events, nil
}

// describe renders the effective chaos knobs for the report.
func (c ChaosSpec) describe(runSeed int64, duration sim.Time) string {
	c = c.withDefaults(runSeed, duration)
	kinds := make([]string, 0, len(c.Kinds))
	for _, kw := range c.Kinds {
		kinds = append(kinds, fmt.Sprintf("%s:%g", kw.Kind, kw.Weight))
	}
	return fmt.Sprintf("seed=%d events<=%d window=%v..%v mean=%v min=%v max_overlap=%d kinds[%s]",
		c.Seed, c.Events, c.WindowFrom, c.WindowTo, c.MeanDuration, c.MinDuration,
		c.MaxOverlap, strings.Join(kinds, " "))
}
