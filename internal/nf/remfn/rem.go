// Package remfn implements the REM (regular-expression matching) benchmark
// function. The paper drives the BlueField-2 RXP accelerator with two
// Hyperscan rulesets — teakettle_2500 ("tea", simple) and snort_literals
// ("lite", complex). Those rulesets are proprietary downloads, so we
// synthesize rulesets with the same character: tea is a small set of short
// literals; lite is a large set of longer, overlapping signatures plus 64
// regex rules. The literal core is a dense Aho–Corasick DFA (package
// ahocorasick); the regex rules run on the standard library's regexp
// behind an Aho–Corasick prefilter of their literal factors.
package remfn

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"regexp"
	"sync"

	"halsim/internal/nf"
	"halsim/internal/nf/remfn/ahocorasick"
	"halsim/internal/rng"
)

// Ruleset identifies a compiled pattern set.
type Ruleset string

// The two rulesets of the paper.
const (
	RulesetTea  Ruleset = "tea"  // teakettle_2500-class: simple
	RulesetLite Ruleset = "lite" // snort_literals-class: complex
)

// synthesizeRules generates a deterministic ruleset. count patterns of
// lengths [minLen, maxLen] over a skewed byte alphabet, so patterns share
// prefixes and the automaton develops realistic fail-link structure.
func synthesizeRules(count, minLen, maxLen int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	alphabet := []byte("abcdefghijklmnopqrstuvwxyz0123456789/._-%&=?")
	rules := make([][]byte, 0, count)
	// A pool of shared stems makes signatures overlap like Snort
	// literals do ("GET /", "cmd.exe", ...).
	stems := make([][]byte, 1+count/10)
	for i := range stems {
		n := 3 + rng.Intn(5)
		s := make([]byte, n)
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		stems[i] = s
	}
	for i := 0; i < count; i++ {
		n := minLen + rng.Intn(maxLen-minLen+1)
		p := make([]byte, 0, n)
		if rng.Intn(2) == 0 {
			p = append(p, stems[rng.Intn(len(stems))]...)
		}
		for len(p) < n {
			p = append(p, alphabet[rng.Intn(len(alphabet))])
		}
		rules = append(rules, p[:n])
	}
	return rules
}

// rulesetCache memoizes the compiled automata: the named rulesets are
// synthesized from fixed seeds, and the Automaton is immutable after
// Compile and safe for concurrent readers, so every Func of the same
// ruleset can share one dense DFA. An experiment sweep instantiates the
// REM function dozens of times; recompiling thousands of patterns per run
// was pure setup overhead. sync.Map because sweeps build runs in parallel;
// racing stores compile equal automata and either may win.
var rulesetCache sync.Map

// CompileRuleset builds (or returns the cached) automaton for a named
// ruleset.
func CompileRuleset(rs Ruleset) (*ahocorasick.Automaton, error) {
	if ac, ok := rulesetCache.Load(rs); ok {
		return ac.(*ahocorasick.Automaton), nil
	}
	var ac *ahocorasick.Automaton
	var err error
	switch rs {
	case RulesetTea:
		// teakettle_2500: ~2500 short, simple literals.
		ac, err = ahocorasick.Compile(synthesizeRules(2500, 4, 8, 25))
	case RulesetLite:
		// snort_literals: thousands of longer, overlapping
		// signatures — a much larger automaton.
		ac, err = ahocorasick.Compile(synthesizeRules(4000, 6, 16, 97))
	default:
		return nil, fmt.Errorf("remfn: unknown ruleset %q", rs)
	}
	if err != nil {
		return nil, err
	}
	rulesetCache.Store(rs, ac)
	return ac, nil
}

// regexRule couples a compiled regex with its required literal factor: the
// Hyperscan decomposition, where a cheap multi-literal prefilter gates the
// expensive NFA (§II-A's RXP programming model).
type regexRule struct {
	prefilter string
	re        *regexp.Regexp
}

// Func is the REM network function: it scans payloads against its ruleset
// (literal signatures plus regex rules behind a literal prefilter) and
// reports the match count and the first few literal match positions.
type Func struct {
	ruleset Ruleset
	ac      *ahocorasick.Automaton

	// Regex stage: preAC finds candidate prefilter literals; regexes[i]
	// runs only when its prefilter occurred.
	preAC   *ahocorasick.Automaton
	regexes []regexRule

	// RegexScans counts NFA executions (prefilter effectiveness);
	// RegexMatches counts regex rule hits.
	RegexScans   uint64
	RegexMatches uint64
}

// NewFunc compiles the given ruleset into a REM function.
func NewFunc(rs Ruleset) (*Func, error) {
	ac, err := CompileRuleset(rs)
	if err != nil {
		return nil, err
	}
	f := &Func{ruleset: rs, ac: ac}
	if rs == RulesetLite {
		// snort_literals-class rules include regex signatures.
		f.regexes = synthesizeRegexRules(64, 123)
		pres := make([][]byte, len(f.regexes))
		for i, r := range f.regexes {
			pres[i] = []byte(r.prefilter)
		}
		f.preAC, err = ahocorasick.Compile(pres)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// synthesizeRegexRules builds deterministic regex signatures with a
// guaranteed literal factor, the shape Snort PCRE rules take
// ("cmd\.exe[0-9a-z]*\.dll" and friends). The (?s) flag lets '.' match
// '\n' too: packet payloads are bytes, not lines.
func synthesizeRegexRules(count int, seed int64) []regexRule {
	rng := rand.New(rand.NewSource(seed))
	lits := synthesizeRules(count*2, 4, 7, seed)
	rules := make([]regexRule, 0, count)
	for i := 0; i < count; i++ {
		lit1 := string(lits[2*i])
		lit2 := string(lits[2*i+1])
		e1, e2 := regexp.QuoteMeta(lit1), regexp.QuoteMeta(lit2)
		var pat string
		switch rng.Intn(3) {
		case 0:
			pat = e1 + "[a-z0-9]*" + e2
		case 1:
			pat = e1 + "\\d+"
		default:
			pat = e1 + ".?" + "(" + e2 + "|\\d\\d)"
		}
		rules = append(rules, regexRule{prefilter: lit1, re: regexp.MustCompile("(?s)" + pat)})
	}
	return rules
}

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.REM }

// Ruleset returns the active ruleset name.
func (f *Func) Ruleset() Ruleset { return f.ruleset }

// Automaton exposes the compiled DFA (tests, sizing reports).
func (f *Func) Automaton() *ahocorasick.Automaton { return f.ac }

// Process scans the payload through both stages. Response layout:
// matchCount[4] (literal + regex hits) then up to 16 literal match records
// of pattern[4] end[4].
func (f *Func) Process(req []byte) ([]byte, error) {
	matches := f.ac.FindAll(req)
	n := len(matches)
	if f.preAC != nil {
		// Prefilter: which regex candidates have their literal factor
		// in this payload?
		seen := map[int]bool{}
		for _, m := range f.preAC.FindAll(req) {
			if seen[m.Pattern] {
				continue
			}
			seen[m.Pattern] = true
			f.RegexScans++
			if f.regexes[m.Pattern].re.Match(req) {
				f.RegexMatches++
				n++
			}
		}
	}
	// Records carry literal matches only (regex hits have no single
	// end offset); the count field still includes both.
	rec := len(matches)
	if rec > 16 {
		rec = 16
	}
	resp := make([]byte, 4+8*rec)
	binary.BigEndian.PutUint32(resp[0:4], uint32(n))
	for i := 0; i < rec; i++ {
		binary.BigEndian.PutUint32(resp[4+8*i:], uint32(matches[i].Pattern))
		binary.BigEndian.PutUint32(resp[8+8*i:], uint32(matches[i].End))
	}
	return resp, nil
}

// filler is the HTTP-ish text request payloads are sampled from, byte by
// byte; implants then overwrite a few spans with rule patterns.
const filler = "GET /index.html HTTP/1.1 host: example.com accept: text/plain "

// gen produces payloads resembling HTTP-ish traffic with occasional
// implanted rule hits so match counts are non-trivial. The implants are
// the compiled ruleset's own patterns.
type gen struct {
	ac *ahocorasick.Automaton
}

func (g gen) Next(rng *rng.Rand) []byte { return g.NextInto(rng, nil) }

// NextInto implements nf.RequestGenInto: every byte of the returned slice
// is written, so recycled buffers yield the identical request stream.
func (g gen) NextInto(rng *rng.Rand, buf []byte) []byte {
	n := g.NextLen(rng)
	b := nf.Reserve(buf, n)
	rng.Pick(b, filler)
	// implant 0-3 pattern occurrences
	for k := rng.Intn(4); k > 0; k-- {
		p := g.ac.Pattern(rng.Intn(g.ac.NumPatterns()))
		if len(p) < n {
			off := rng.Intn(n - len(p))
			copy(b[off:], p)
		}
	}
	return b
}

// NextLen implements nf.RequestGenLen: a request's length is its stream's
// first draw, and the filler and implants draw after it.
func (g gen) NextLen(rng *rng.Rand) int { return 200 + rng.Intn(1000) }

func factory(config string) (nf.Function, nf.RequestGen, error) {
	rs := RulesetTea
	switch config {
	case "", "tea":
		rs = RulesetTea
	case "lite":
		rs = RulesetLite
	}
	f, err := NewFunc(rs)
	if err != nil {
		return nil, nil, err
	}
	return f, gen{ac: f.ac}, nil
}

func init() { nf.Register(nf.REM, factory, "tea", "lite") }
