package remfn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/rng"
)

func TestRulesetsCompile(t *testing.T) {
	tea, err := CompileRuleset(RulesetTea)
	if err != nil {
		t.Fatal(err)
	}
	lite, err := CompileRuleset(RulesetLite)
	if err != nil {
		t.Fatal(err)
	}
	if lite.NumStates() <= tea.NumStates() {
		t.Fatalf("lite (%d states) should be more complex than tea (%d states)",
			lite.NumStates(), tea.NumStates())
	}
	if _, err := CompileRuleset("bogus"); err == nil {
		t.Fatal("unknown ruleset should fail")
	}
}

func TestProcessReportsImplantedMatch(t *testing.T) {
	f, err := NewFunc(RulesetTea)
	if err != nil {
		t.Fatal(err)
	}
	// Take a known pattern from the synthesized ruleset and implant it.
	pats := synthesizeRules(2500, 4, 8, 25)
	payload := make([]byte, 500)
	for i := range payload {
		payload[i] = 'Z' // outside the rule alphabet
	}
	copy(payload[100:], pats[0])
	resp, err := f.Process(payload)
	if err != nil {
		t.Fatal(err)
	}
	count := binary.BigEndian.Uint32(resp[0:4])
	if count == 0 {
		t.Fatal("implanted pattern not found")
	}
	// First match record must point at a real occurrence.
	end := binary.BigEndian.Uint32(resp[8:12])
	if end < 100 || int(end) > 100+len(pats[0]) {
		t.Fatalf("match end %d implausible for implant at 100", end)
	}
}

func TestProcessCleanPayload(t *testing.T) {
	f, err := NewFunc(RulesetTea)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = 'Z'
	}
	resp, err := f.Process(payload)
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(resp[0:4]) != 0 {
		t.Fatal("Z-payload should not match lowercase rules")
	}
	if len(resp) != 4 {
		t.Fatalf("clean response should carry no records, len %d", len(resp))
	}
}

func TestResponseCapsRecords(t *testing.T) {
	f, err := NewFunc(RulesetTea)
	if err != nil {
		t.Fatal(err)
	}
	pats := synthesizeRules(2500, 4, 8, 25)
	var payload []byte
	for i := 0; i < 100; i++ {
		payload = append(payload, pats[i%10]...)
	}
	resp, err := f.Process(payload)
	if err != nil {
		t.Fatal(err)
	}
	count := binary.BigEndian.Uint32(resp[0:4])
	if count < 100 {
		t.Fatalf("expected >=100 matches, got %d", count)
	}
	if len(resp) != 4+8*16 {
		t.Fatalf("records must cap at 16: resp len %d", len(resp))
	}
}

func TestFactoryConfigs(t *testing.T) {
	for _, cfg := range []string{"", "tea", "lite"} {
		fn, gen, err := nf.New(nf.REM, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.Stream(10, rng.Payload, 0)
		matched := false
		for i := 0; i < 30; i++ {
			resp, err := fn.Process(gen.Next(&r))
			if err != nil {
				t.Fatal(err)
			}
			if binary.BigEndian.Uint32(resp[0:4]) > 0 {
				matched = true
			}
		}
		if !matched {
			t.Errorf("config %q: generator never produced a matching payload", cfg)
		}
	}
	if _, _, err := nf.New(nf.REM, "snort_full"); err == nil {
		t.Fatal("bad config should fail")
	}
}

func TestRulesetAccessor(t *testing.T) {
	f, _ := NewFunc(RulesetLite)
	if f.Ruleset() != RulesetLite {
		t.Fatal("ruleset accessor")
	}
	if f.Automaton() == nil {
		t.Fatal("automaton accessor")
	}
}

func BenchmarkProcessTea(b *testing.B) {
	f, err := NewFunc(RulesetTea)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1400)
	rng := rand.New(rand.NewSource(1))
	const filler = "GET /index.html HTTP/1.1 host: example.com "
	for i := range payload {
		payload[i] = filler[rng.Intn(len(filler))]
	}
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Process(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLiteRulesetRegexStage(t *testing.T) {
	f, err := NewFunc(RulesetLite)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.regexes) == 0 || f.preAC == nil {
		t.Fatal("lite ruleset must carry regex rules behind a prefilter")
	}
	// A payload with no prefilter literal must not run any NFA.
	clean := make([]byte, 800)
	for i := range clean {
		clean[i] = 'Z'
	}
	if _, err := f.Process(clean); err != nil {
		t.Fatal(err)
	}
	if f.RegexScans != 0 {
		t.Fatalf("prefilter failed: %d NFA scans on a clean payload", f.RegexScans)
	}
	// Implant a full regex hit: prefilter literal + digits satisfies
	// at least the "\d+" rule shapes; find one such rule.
	var hitRule *regexRule
	for i := range f.regexes {
		r := &f.regexes[i]
		if r.re.MatchString(r.prefilter + "1234") {
			hitRule = r
			break
		}
	}
	if hitRule == nil {
		t.Skip("no digit-suffix rule in this synthesis (unexpected but not fatal)")
	}
	payload := append([]byte("ZZZZ "), []byte(hitRule.prefilter+"1234 ZZZZ")...)
	resp, err := f.Process(payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.RegexScans == 0 {
		t.Fatal("prefilter hit should trigger an NFA scan")
	}
	if f.RegexMatches == 0 {
		t.Fatal("implanted regex hit not counted")
	}
	if binary.BigEndian.Uint32(resp[0:4]) == 0 {
		t.Fatal("match count must include regex hits")
	}
}

func TestTeaRulesetHasNoRegexStage(t *testing.T) {
	f, err := NewFunc(RulesetTea)
	if err != nil {
		t.Fatal(err)
	}
	if f.preAC != nil || len(f.regexes) != 0 {
		t.Fatal("tea is a literal-only ruleset")
	}
}

// TestEscapeLit pins how rule literals embed in their patterns: over the
// rule alphabet QuoteMeta escapes '.' and '?' and nothing else, so every
// synthesized pattern is the same string the rules have always used.
func TestEscapeLit(t *testing.T) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789/._-%&=?"
	if got, want := regexp.QuoteMeta(alphabet), `abcdefghijklmnopqrstuvwxyz0123456789/\._-%&=\?`; got != want {
		t.Fatalf("QuoteMeta(alphabet) = %q, want %q", got, want)
	}
}

// TestEscapedMetachars checks that the lite ruleset's regex rules match
// their literal factors literally: a '.' in a literal does not match
// another byte, and a '?' does not make the byte before it optional.
func TestEscapedMetachars(t *testing.T) {
	rules := synthesizeRegexRules(64, 123)
	lits := synthesizeRules(2*len(rules), 4, 7, 123)
	var dots, questions int
	for i, r := range rules {
		lit1, lit2 := string(lits[2*i]), string(lits[2*i+1])
		if lit1 != r.prefilter {
			t.Fatalf("rule %d: prefilter %q, literal %q", i, r.prefilter, lit1)
		}
		// "1" satisfies [a-z0-9]* and .?, "12" satisfies \d+ and \d\d, so
		// every rule shape matches the unmutated payload.
		if hit := lit1 + "1" + lit2 + "12"; !r.re.MatchString(hit) {
			t.Fatalf("rule %d (%v) misses %q", i, r.re, hit)
		}
		if strings.Contains(lit1, ".") {
			dots++
			if miss := strings.ReplaceAll(lit1, ".", "Z") + "1" + lit2 + "12"; r.re.MatchString(miss) {
				t.Errorf("rule %d (%v): '.' in %q matched 'Z' in %q", i, r.re, lit1, miss)
			}
		}
		if strings.Contains(lit1, "?") {
			questions++
			if miss := strings.ReplaceAll(lit1, "?", "") + "1" + lit2 + "12"; r.re.MatchString(miss) {
				t.Errorf("rule %d (%v): '?' in %q matched as optional in %q", i, r.re, lit1, miss)
			}
		}
	}
	if dots == 0 || questions == 0 {
		t.Fatalf("no rule literal carries '.' (%d) or '?' (%d); the check above tested nothing", dots, questions)
	}
}

// regexProbe builds a payload that trips the lite ruleset's regex
// prefilter: ASCII noise, newlines included, with one rule's literal
// factor implanted and followed by a suffix that satisfies or narrowly
// misses one of the three rule shapes.
func regexProbe(r *rand.Rand, lits [][]byte) []byte {
	const noise = "abcdefghijklmnopqrstuvwxyz0123456789/._-%&=?ZQ \n\t"
	b := make([]byte, 16+r.Intn(100))
	for i := range b {
		b[i] = noise[r.Intn(len(noise))]
	}
	k := r.Intn(len(lits) / 2)
	imp := append([]byte(nil), lits[2*k]...)
	noiseByte := func() byte { return noise[r.Intn(len(noise))] }
	digits := func(n int) {
		for ; n > 0; n-- {
			imp = append(imp, byte('0'+r.Intn(10)))
		}
	}
	switch r.Intn(6) {
	case 0:
		digits(r.Intn(4))
	case 1:
		for n := r.Intn(6); n > 0; n-- {
			imp = append(imp, noiseByte())
		}
		imp = append(imp, lits[2*k+1]...)
	case 2:
		imp = append(imp, noiseByte())
		imp = append(imp, lits[2*k+1]...)
	case 3:
		imp = append(imp, noiseByte())
		digits(2)
	case 4:
		imp = append(imp, lits[2*k+1]...)
	}
	off := r.Intn(len(b) + 1)
	return append(b[:off], append(imp, b[off:]...)...)
}

// TestRegexStagePinned drives the lite regex stage with 5,000 seeded
// prefilter-tripping payloads and checks the exact scan and match counts,
// recorded from the Thompson-NFA engine the rules ran on before regexp;
// 200,000 such payloads gave no difference between the two engines.
func TestRegexStagePinned(t *testing.T) {
	f, err := NewFunc(RulesetLite)
	if err != nil {
		t.Fatal(err)
	}
	// synthesizeRegexRules draws each rule's two literals from this list.
	lits := synthesizeRules(2*len(f.regexes), 4, 7, 123)
	r := rand.New(rand.NewSource(1))
	var total uint64
	for i := 0; i < 5000; i++ {
		resp, err := f.Process(regexProbe(r, lits))
		if err != nil {
			t.Fatal(err)
		}
		total += uint64(binary.BigEndian.Uint32(resp))
	}
	if f.RegexScans != 11392 || f.RegexMatches != 3032 || total != 3032 {
		t.Fatalf("scans %d, regex matches %d, all matches %d; want 11392, 3032, 3032",
			f.RegexScans, f.RegexMatches, total)
	}
}

// refSource feeds math/rand the draws of a copy of a stream, shifted
// right by one so its Int31 is the top 31 bits of a draw, as rng's Intn
// takes them; it counts the draws.
type refSource struct {
	r     rng.Rand
	draws int
}

func (s *refSource) Int63() int64 { s.draws++; return int64(s.r.Uint64() >> 1) }
func (s *refSource) Seed(int64)   { panic("refSource: Seed") }

// refRand is the reference: a plain math/rand Rand over a request's
// stream whose source counts draws, so a test can assert that the stream
// really redrew a filler byte.
type refRand struct {
	*rand.Rand
	src     *refSource
	redraws int // filler draws Intn rejected and drew again
}

// newRef returns the reference over request seq's stream of seed 1.
func newRef(seq uint64) *refRand {
	src := &refSource{r: rng.Stream(1, rng.Payload, seq)}
	return &refRand{Rand: rand.New(src), src: src}
}

// fill is the filler written the plain way, one Intn per byte.
func (r *refRand) fill(b []byte) {
	before := r.src.draws
	for i := range b {
		b[i] = filler[r.Intn(len(filler))]
	}
	r.redraws += r.src.draws - before - len(b)
}

// refNextInto is the request generator written the plain way, one
// rng.Intn per filler byte and implants drawn from a freshly synthesized
// pattern list. gen must reproduce its bytes and its draws.
func refNextInto(pats [][]byte, r *refRand, buf []byte) []byte {
	n := 200 + r.Intn(1000)
	b := nf.Reserve(buf, n)
	r.fill(b)
	for k := r.Intn(4); k > 0; k-- {
		p := pats[r.Intn(len(pats))]
		if len(p) < n {
			off := r.Intn(n - len(p))
			copy(b[off:], p)
		}
	}
	return b
}

// redrawSeqs are requests of seed 1 whose payload streams hold a draw
// that Intn(len(filler)) rejects, which a plain stream reaches about once
// in 10^9 draws. The tests below assert that their references really
// redraw, so this coverage cannot lapse silently.
var redrawSeqs = []uint64{3909, 494557}

// TestRedrawSeeds pins where the redraws are: in the top 31 bits that
// Intn keeps, filler draw #674 of request 3909 and #367 of request 494557
// (0-based, after the length draw) are 2147483646, above the largest
// value Intn(62) accepts.
func TestRedrawSeeds(t *testing.T) {
	const bound = (1<<31 - 1) - (1<<31)%len(filler)
	for i, at := range []int{674, 367} {
		r := rng.Stream(1, rng.Payload, redrawSeqs[i])
		r.Intn(1000)
		for k := 0; k < at; k++ {
			r.Uint64()
		}
		if v := r.Uint64() >> 33; v != 2147483646 || v <= uint64(bound) {
			t.Fatalf("request %d filler draw #%d: %d, bound %d", redrawSeqs[i], at, v, bound)
		}
	}
}

func TestFillStreamExact(t *testing.T) {
	lens := []int{0, 1, 2, 61, 62, 63, 200, 700, 1199}
	seqs := slices.Clone(redrawSeqs)
	for seq := uint64(0); seq < 200; seq++ {
		seqs = append(seqs, seq)
	}
	for _, seq := range seqs {
		got, want := rng.Stream(1, rng.Payload, seq), newRef(seq)
		for _, n := range lens {
			a, b := make([]byte, n), make([]byte, n)
			got.Pick(a, filler)
			want.fill(b)
			if !bytes.Equal(a, b) {
				t.Fatalf("request %d len %d: Pick bytes differ from Intn", seq, n)
			}
			if got != want.src.r {
				t.Fatalf("request %d len %d: Pick and the Intn loop made different draws", seq, n)
			}
		}
		if slices.Contains(redrawSeqs, seq) && want.redraws == 0 {
			t.Fatalf("request %d: the reference no longer redraws a filler byte", seq)
		}
	}
}

// TestGenStreamExact holds each request's bytes and draws to the plain
// reference on its own stream, and NextLen to exactly one draw, the
// length's.
func TestGenStreamExact(t *testing.T) {
	seqs := slices.Clone(redrawSeqs)
	for seq := uint64(0); seq < 40; seq++ {
		seqs = append(seqs, seq)
	}
	for _, tc := range []struct {
		config string
		pats   [][]byte
	}{
		{"tea", synthesizeRules(2500, 4, 8, 25)},
		{"lite", synthesizeRules(4000, 6, 16, 97)},
	} {
		_, g, err := nf.New(nf.REM, tc.config)
		if err != nil {
			t.Fatal(err)
		}
		gi, gl := g.(nf.RequestGenInto), g.(nf.RequestGenLen)
		var bufG, bufW []byte
		for _, seq := range seqs {
			got, want := rng.Stream(1, rng.Payload, seq), newRef(seq)
			bufG = gi.NextInto(&got, bufG)
			bufW = refNextInto(tc.pats, want, bufW)
			if !bytes.Equal(bufG, bufW) {
				t.Fatalf("%s request %d: bytes differ from the reference", tc.config, seq)
			}
			if got != want.src.r {
				t.Fatalf("%s request %d: draws differ from the reference", tc.config, seq)
			}
			if slices.Contains(redrawSeqs, seq) && want.redraws == 0 {
				t.Fatalf("%s request %d: the reference no longer redraws a filler byte", tc.config, seq)
			}
			dry, one := rng.Stream(1, rng.Payload, seq), rng.Stream(1, rng.Payload, seq)
			one.Intn(1000)
			if n := gl.NextLen(&dry); n != len(bufG) || dry != one {
				t.Fatalf("%s request %d: NextLen %d of %d bytes, or more than one draw", tc.config, seq, n, len(bufG))
			}
		}
	}
}

// BenchmarkGenNextInto renders tea requests (200–1,199 bytes, ~700 on
// average) into a recycled buffer, each on its own stream: the per-packet
// payload cost a REM client pays when the function runs.
func BenchmarkGenNextInto(b *testing.B) {
	_, g, err := nf.New(nf.REM, "tea")
	if err != nil {
		b.Fatal(err)
	}
	gi := g.(nf.RequestGenInto)
	var r rng.Rand
	buf := make([]byte, 0, 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seed(1, rng.Payload, uint64(i))
		buf = gi.NextInto(&r, buf)
	}
}

// BenchmarkGenNextLen draws BenchmarkGenNextInto's lengths without their
// bytes: the per-packet payload cost of a client that reads no payload.
func BenchmarkGenNextLen(b *testing.B) {
	_, g, err := nf.New(nf.REM, "tea")
	if err != nil {
		b.Fatal(err)
	}
	gl := g.(nf.RequestGenLen)
	var r rng.Rand
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seed(1, rng.Payload, uint64(i))
		gl.NextLen(&r)
	}
}
