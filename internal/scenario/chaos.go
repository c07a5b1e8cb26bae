package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"halsim/internal/fault"
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
	// active (burstiness; default 2). Windows in conflict (same
	// mechanism, see fault.Window.Conflicts) never overlap regardless.
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
	Kind   fault.Kind
	Weight float64
}

// keys is the chaos section's table.
func (c *ChaosSpec) keys() []key {
	return []key{
		{name: "seed", bind: integer64(&c.Seed)},
		{name: "events", bind: integer(&c.Events)},
		{name: "window", bind: span(&c.WindowFrom, &c.WindowTo)},
		{name: "mean_duration", bind: duration(&c.MeanDuration)},
		{name: "min_duration", bind: duration(&c.MinDuration)},
		{name: "max_overlap", bind: integer(&c.MaxOverlap)},
		{name: "kinds", bind: c.bindKinds},
		{name: "max_cores", bind: integer(&c.MaxCores)},
		{name: "max_drop_prob", bind: float(&c.MaxDropProb)},
	}
}

// bindKinds decodes the `kind: weight` mapping of the kind mix.
func (c *ChaosSpec) bindKinds(n *yaml.Node, what string) error {
	if n.Kind != yaml.MapNode {
		return errf("%s: line %d: want a mapping of kind: weight", what, n.Line)
	}
	for _, name := range n.Keys {
		v := n.Get(name)
		k, err := fault.ParseKind(name)
		if err != nil || !slices.Contains(chaosKinds, k) {
			return errf("%s: line %d: unknown kind %q (want %v)", what, v.Line, name, chaosKinds)
		}
		w, err := v.Float()
		if err != nil {
			return errf("%s.%s: %v", what, name, err)
		}
		if w < 0 {
			return errf("%s.%s: line %d: negative weight %g", what, name, v.Line, w)
		}
		c.Kinds = append(c.Kinds, KindWeight{Kind: k, Weight: w})
	}
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

// generate draws the chaos schedule as fault windows (sorted by start
// time), the form explicit events take too. Deterministic: the spec
// seed's chaos stream, drawn in a fixed order, no map iteration. On a
// fleet of servers > 1 each window, in firing order, then draws its
// target server from a second stream, so the windows themselves are the
// ones a single server would get.
func (c ChaosSpec) generate(runSeed int64, duration sim.Time, servers int) ([]fault.Window, error) {
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
	var accepted []fault.Window
	overlapOK := func(w fault.Window) bool {
		// Windows in conflict must not overlap (the plan rejects them);
		// otherwise at most MaxOverlap may be active at once.
		active := 1
		for _, a := range accepted {
			if w.From < a.To && a.From < w.To {
				if w.Conflicts(a) {
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
			w := fault.Window{From: from, To: to, Kind: kind}
			switch kind {
			case fault.CoreCrash:
				w.Cores = 1 + r.Intn(c.MaxCores)
			case fault.RxDrop:
				w.DropProb = 0.05 + r.Float64()*(c.MaxDropProb-0.05)
				if w.DropProb > c.MaxDropProb {
					w.DropProb = c.MaxDropProb
				}
			}
			if !overlapOK(w) {
				continue
			}
			accepted = append(accepted, w)
			break
		}
	}
	sort.SliceStable(accepted, func(i, j int) bool { return accepted[i].From < accepted[j].From })
	if len(accepted) == 0 && c.Events > 0 {
		return nil, errf("chaos: no fault window could be placed (window %v..%v too tight for max_overlap %d)",
			c.WindowFrom, c.WindowTo, c.MaxOverlap)
	}
	if servers > 1 {
		target := rng.Stream(c.Seed, rng.Chaos, 1)
		for i := range accepted {
			accepted[i].Server = target.Intn(servers)
		}
	}
	return accepted, nil
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
