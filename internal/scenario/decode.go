package scenario

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"halsim/internal/scenario/yaml"
	"halsim/internal/sim"
)

// The decoder: each section of a document is a table of keys, and each
// key names its destination through a binder. The table is also the
// section's known-key list, so every key is spelled once.

// binder decodes one present key's node onto its destination; what names
// the key in errors ("run.rate_gbps").
type binder func(n *yaml.Node, what string) error

// key is one row of a section's table. need, set on a required key, is
// the error format when the key is absent (arguments: section, the
// section's line, the key).
type key struct {
	name string
	bind binder
	need string
}

// missingKey is the usual need; topSection labels the document itself,
// whose keys are named without a prefix.
const (
	missingKey = "%[1]s: line %[2]d: missing `%[3]s`"
	topSection = "scenario"
)

// errMissing, from a binder, reports a required key present but empty.
var errMissing = errors.New("missing")

// decode rejects keys outside the table, then binds the present ones in
// table order.
func decode(n *yaml.Node, section string, keys []key) error {
	if err := checkKeys(n, section, keys); err != nil {
		return err
	}
	line, prefix := 0, section+"."
	if n != nil {
		line = n.Line
	}
	if section == topSection {
		prefix = ""
	}
	for _, k := range keys {
		var err error
		switch v := n.Get(k.name); {
		case v != nil:
			err = k.bind(v, prefix+k.name)
		case k.need != "":
			err = errMissing
		}
		if errors.Is(err, errMissing) {
			return errf(k.need, section, line, k.name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkKeys rejects unknown keys in a mapping so typos fail loudly.
func checkKeys(n *yaml.Node, section string, keys []key) error {
	if n == nil {
		return nil
	}
	if n.Kind != yaml.MapNode {
		return errf("%s: line %d: want a mapping, have a %v", section, n.Line, n.Kind)
	}
	for _, k := range n.Keys {
		if !slices.ContainsFunc(keys, func(want key) bool { return want.name == k }) {
			known := make([]string, len(keys))
			for i, want := range keys {
				known[i] = want.name
			}
			return errf("%s: line %d: unknown key %q (known: %s)",
				section, n.Get(k).Line, k, strings.Join(known, ", "))
		}
	}
	return nil
}

// scalar binds a scalar through set, which reports a bad value by an
// error placed at the node's line.
func scalar(set func(string) error) binder {
	return func(n *yaml.Node, what string) error {
		v, err := n.Scalar()
		if err != nil {
			return errf("%s: %v", what, err)
		}
		if err := set(v); err != nil {
			return errf("%s: line %d: %v", what, n.Line, err)
		}
		return nil
	}
}

// typed binds a scalar through one of the node's typed accessors.
func typed[T any](p *T, get func(*yaml.Node) (T, error)) binder {
	return func(n *yaml.Node, what string) error {
		v, err := get(n)
		if err != nil {
			return errf("%s: %v", what, err)
		}
		*p = v
		return nil
	}
}

func str(p *string) binder      { return scalar(func(v string) error { *p = v; return nil }) }
func float(p *float64) binder   { return typed(p, (*yaml.Node).Float) }
func boolean(p *bool) binder    { return typed(p, (*yaml.Node).Bool) }
func integer64(p *int64) binder { return typed(p, (*yaml.Node).Int64) }

func lower(p *string) binder {
	return scalar(func(v string) error { *p = strings.ToLower(v); return nil })
}

func integer(p *int) binder {
	return typed(p, func(n *yaml.Node) (int, error) { v, err := n.Int64(); return int(v), err })
}

// duration binds a duration literal ("500us", "2ms", "1s") as simulated
// time.
func duration(p *sim.Time) binder {
	return scalar(func(v string) error {
		d, err := time.ParseDuration(strings.TrimSpace(v))
		if err != nil {
			return fmt.Errorf("%q is not a duration (want e.g. 500us, 2ms)", v)
		}
		*p = sim.Duration(d)
		return nil
	})
}

// span binds "2ms..8ms" as a [from, to) window.
func span(from, to *sim.Time) binder {
	return scalar(func(v string) error {
		lo, hi, ok := strings.Cut(v, "..")
		if !ok {
			return fmt.Errorf("%q is not a range (want e.g. 2ms..8ms)", v)
		}
		dl, err1 := time.ParseDuration(strings.TrimSpace(lo))
		dh, err2 := time.ParseDuration(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%q is not a duration range", v)
		}
		if dh <= dl {
			return fmt.Errorf("empty range %q", v)
		}
		*from, *to = sim.Duration(dl), sim.Duration(dh)
		return nil
	})
}

// both runs a then b.
func both(a, b binder) binder {
	return func(n *yaml.Node, what string) error {
		if err := a(n, what); err != nil {
			return err
		}
		return b(n, what)
	}
}

// items binds each element of a sequence section through one.
func items(one func(item *yaml.Node, what string) error) binder {
	return func(n *yaml.Node, what string) error {
		if n.Kind != yaml.SeqNode {
			return errf("%s: line %d: want a sequence of %s, have a %v", what, n.Line, what, n.Kind)
		}
		for i, item := range n.Items {
			if err := one(item, fmt.Sprintf("%s[%d]", what, i)); err != nil {
				return err
			}
		}
		return nil
	}
}
