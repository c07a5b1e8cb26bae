// Package ahocorasick implements the Aho–Corasick multi-pattern string
// matching automaton that powers the REM (regular-expression matching)
// benchmark function. It is the software analogue of the BlueField-2 RXP
// accelerator's literal-matching core: a ruleset is compiled once into a
// goto/fail automaton and then streamed over packet payloads.
package ahocorasick

import (
	"errors"
	"sort"
)

// Match reports one pattern occurrence.
type Match struct {
	// Pattern is the index of the matched pattern in the compiled set.
	Pattern int
	// End is the byte offset just past the match in the input.
	End int
}

type node struct {
	next [256]int32 // goto function, -1 = undefined pre-build
	fail int32
	out  []int32 // pattern indices terminating here
}

// Automaton is a compiled pattern set. It is immutable after Compile and
// safe for concurrent readers.
type Automaton struct {
	nodes    []node
	patterns [][]byte
}

// ErrNoPatterns is returned when compiling an empty rule set.
var ErrNoPatterns = errors.New("ahocorasick: no patterns")

// Compile builds the automaton for the given patterns. Empty patterns are
// rejected; duplicate patterns are allowed and each reports its own index.
func Compile(patterns [][]byte) (*Automaton, error) {
	if len(patterns) == 0 {
		return nil, ErrNoPatterns
	}
	a := &Automaton{
		patterns: make([][]byte, len(patterns)),
	}
	a.nodes = append(a.nodes, node{})
	for i := range a.nodes[0].next {
		a.nodes[0].next[i] = -1
	}
	for pi, p := range patterns {
		if len(p) == 0 {
			return nil, errors.New("ahocorasick: empty pattern")
		}
		a.patterns[pi] = append([]byte(nil), p...)
		cur := int32(0)
		for _, c := range p {
			if a.nodes[cur].next[c] == -1 {
				a.nodes = append(a.nodes, node{})
				n := &a.nodes[len(a.nodes)-1]
				for i := range n.next {
					n.next[i] = -1
				}
				a.nodes[cur].next[c] = int32(len(a.nodes) - 1)
			}
			cur = a.nodes[cur].next[c]
		}
		a.nodes[cur].out = append(a.nodes[cur].out, int32(pi))
	}

	// BFS to set failure links and convert goto misses into transitions
	// (a dense DFA, like hardware would implement).
	queue := make([]int32, 0, len(a.nodes))
	for c := 0; c < 256; c++ {
		if t := a.nodes[0].next[c]; t == -1 {
			a.nodes[0].next[c] = 0
		} else {
			a.nodes[t].fail = 0
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		fail := a.nodes[u].fail
		a.nodes[u].out = append(a.nodes[u].out, a.nodes[fail].out...)
		for c := 0; c < 256; c++ {
			t := a.nodes[u].next[c]
			if t == -1 {
				a.nodes[u].next[c] = a.nodes[fail].next[c]
				continue
			}
			a.nodes[t].fail = a.nodes[fail].next[c]
			queue = append(queue, t)
		}
	}
	return a, nil
}

// CompileStrings is Compile for string patterns.
func CompileStrings(patterns []string) (*Automaton, error) {
	bs := make([][]byte, len(patterns))
	for i, p := range patterns {
		bs[i] = []byte(p)
	}
	return Compile(bs)
}

// NumPatterns returns the number of compiled patterns.
func (a *Automaton) NumPatterns() int { return len(a.patterns) }

// NumStates returns the automaton's state count (a proxy for the
// "complexity" of a ruleset: snort_literals compiles to far more states
// than teakettle).
func (a *Automaton) NumStates() int { return len(a.nodes) }

// Pattern returns pattern i as compiled. The slice aliases the
// automaton's copy and must not be modified.
func (a *Automaton) Pattern(i int) []byte { return a.patterns[i] }

// FindAll streams input through the automaton and returns every match,
// ordered by end offset then pattern index.
func (a *Automaton) FindAll(input []byte) []Match {
	var out []Match
	state := int32(0)
	for i, c := range input {
		state = a.nodes[state].next[c]
		for _, pi := range a.nodes[state].out {
			out = append(out, Match{Pattern: int(pi), End: i + 1})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// Count returns only the number of matches in input, for callers that
// don't need offsets.
func (a *Automaton) Count(input []byte) int {
	n := 0
	state := int32(0)
	for _, c := range input {
		state = a.nodes[state].next[c]
		n += len(a.nodes[state].out)
	}
	return n
}

// Contains reports whether any pattern occurs in input, stopping at the
// first hit.
func (a *Automaton) Contains(input []byte) bool {
	state := int32(0)
	for _, c := range input {
		state = a.nodes[state].next[c]
		if len(a.nodes[state].out) > 0 {
			return true
		}
	}
	return false
}
