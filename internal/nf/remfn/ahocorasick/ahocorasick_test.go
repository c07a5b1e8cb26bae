package ahocorasick

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicMatch(t *testing.T) {
	a, err := CompileStrings([]string{"he", "she", "his", "hers"})
	if err != nil {
		t.Fatal(err)
	}
	matches := a.FindAll([]byte("ushers"))
	// Classic AC example: "ushers" contains she(4), he(4), hers(6).
	want := []Match{{Pattern: 1, End: 4}, {Pattern: 0, End: 4}, {Pattern: 3, End: 6}}
	if len(matches) != len(want) {
		t.Fatalf("matches = %v", matches)
	}
	// Sorted by end then pattern: {0,4},{1,4},{3,6}
	if matches[0] != (Match{Pattern: 0, End: 4}) ||
		matches[1] != (Match{Pattern: 1, End: 4}) ||
		matches[2] != (Match{Pattern: 3, End: 6}) {
		t.Fatalf("matches = %v", matches)
	}
}

func TestNoMatch(t *testing.T) {
	a, _ := CompileStrings([]string{"xyz"})
	if got := a.FindAll([]byte("abcabcabc")); len(got) != 0 {
		t.Fatalf("matches = %v", got)
	}
	if a.Contains([]byte("abcabc")) {
		t.Fatal("Contains should be false")
	}
	if a.Count([]byte("abcabc")) != 0 {
		t.Fatal("Count should be 0")
	}
}

func TestOverlapping(t *testing.T) {
	a, _ := CompileStrings([]string{"aa"})
	if got := a.Count([]byte("aaaa")); got != 3 {
		t.Fatalf("overlapping count = %d, want 3", got)
	}
}

func TestDuplicatePatterns(t *testing.T) {
	a, _ := CompileStrings([]string{"ab", "ab"})
	matches := a.FindAll([]byte("ab"))
	if len(matches) != 2 {
		t.Fatalf("duplicate patterns should both report: %v", matches)
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := Compile(nil); err != ErrNoPatterns {
		t.Fatalf("no patterns: %v", err)
	}
	if _, err := CompileStrings([]string{""}); err == nil {
		t.Fatal("empty pattern should fail")
	}
	a, _ := CompileStrings([]string{"x"})
	if len(a.FindAll(nil)) != 0 {
		t.Fatal("nil input should have no matches")
	}
}

func TestBinaryPatterns(t *testing.T) {
	a, err := Compile([][]byte{{0x00, 0xff}, {0xff, 0x00, 0xff}})
	if err != nil {
		t.Fatal(err)
	}
	in := []byte{0x01, 0xff, 0x00, 0xff, 0x02}
	m := a.FindAll(in)
	if len(m) != 2 {
		t.Fatalf("binary matches = %v", m)
	}
}

// naiveCount is the oracle: count all (overlapping) occurrences of every
// pattern by brute force.
func naiveCount(patterns [][]byte, input []byte) int {
	n := 0
	for _, p := range patterns {
		for i := 0; i+len(p) <= len(input); i++ {
			if bytes.Equal(input[i:i+len(p)], p) {
				n++
			}
		}
	}
	return n
}

func TestMatchesNaivePropertySmallAlphabet(t *testing.T) {
	// Small alphabet forces dense overlaps — the hardest case for fail
	// links.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		numPat := 1 + rng.Intn(8)
		pats := make([][]byte, numPat)
		for i := range pats {
			l := 1 + rng.Intn(4)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(2))
			}
			pats[i] = p
		}
		input := make([]byte, 200)
		for i := range input {
			input[i] = byte('a' + rng.Intn(2))
		}
		a, err := Compile(pats)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := a.Count(input), naiveCount(pats, input); got != want {
			t.Fatalf("trial %d: Count = %d, naive = %d (patterns %q)", trial, got, want, pats)
		}
		if got, want := len(a.FindAll(input)), naiveCount(pats, input); got != want {
			t.Fatalf("trial %d: FindAll = %d, naive = %d", trial, got, want)
		}
	}
}

func TestQuickPropertyVsNaive(t *testing.T) {
	f := func(patRaw [3][]byte, input []byte) bool {
		var pats [][]byte
		for _, p := range patRaw {
			if len(p) > 0 && len(p) <= 6 {
				pats = append(pats, p)
			}
		}
		if len(pats) == 0 {
			return true
		}
		a, err := Compile(pats)
		if err != nil {
			return false
		}
		return a.Count(input) == naiveCount(pats, input)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchEndOffsets(t *testing.T) {
	a, _ := CompileStrings([]string{"needle"})
	in := []byte("hay needle hay needle")
	m := a.FindAll(in)
	if len(m) != 2 {
		t.Fatalf("matches = %v", m)
	}
	for _, mm := range m {
		start := mm.End - len(a.Pattern(mm.Pattern))
		if string(in[start:mm.End]) != "needle" {
			t.Fatalf("offset wrong: %v", mm)
		}
	}
}

func TestContainsEarlyExit(t *testing.T) {
	a, _ := CompileStrings([]string{"zz"})
	in := append([]byte("zz"), bytes.Repeat([]byte("a"), 1<<20)...)
	if !a.Contains(in) {
		t.Fatal("Contains missed an early match")
	}
}

func TestNumStatesGrowsWithRuleComplexity(t *testing.T) {
	small, _ := CompileStrings([]string{"ab", "cd"})
	big, _ := CompileStrings([]string{"abcdefgh", "ijklmnop", "qrstuvwx"})
	if big.NumStates() <= small.NumStates() {
		t.Fatal("longer rulesets should have more states")
	}
	if small.NumPatterns() != 2 || big.NumPatterns() != 3 {
		t.Fatal("pattern counts wrong")
	}
}

func BenchmarkScanMTU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pats := make([][]byte, 1000)
	for i := range pats {
		p := make([]byte, 4+rng.Intn(8))
		for j := range p {
			p[j] = byte('a' + rng.Intn(26))
		}
		pats[i] = p
	}
	a, err := Compile(pats)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1500)
	for i := range payload {
		payload[i] = byte('a' + rng.Intn(26))
	}
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Count(payload)
	}
}
