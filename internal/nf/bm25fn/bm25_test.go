package bm25fn

import (
	"encoding/binary"
	"testing"

	"halsim/internal/rng"
)

func query(terms ...uint16) []byte {
	b := make([]byte, 1+2*len(terms))
	b[0] = byte(len(terms))
	for i, t := range terms {
		binary.BigEndian.PutUint16(b[1+2*i:], t)
	}
	return b
}

func TestIndexDeterministic(t *testing.T) {
	a := BuildIndex(100, 50, 9)
	b := BuildIndex(100, 50, 9)
	ra := a.Query([]uint16{1, 2, 3}, 5)
	rb := b.Query([]uint16{1, 2, 3}, 5)
	if len(ra) != len(rb) {
		t.Fatal("same seed should build the same index")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("results differ for identical indexes")
		}
	}
}

func TestQueryRankingOrdered(t *testing.T) {
	idx := BuildIndex(200, 100, 1)
	res := idx.Query([]uint16{0, 1, 2, 3}, 20)
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results must be sorted by descending score")
		}
	}
}

func TestScoresPositive(t *testing.T) {
	idx := BuildIndex(200, 100, 2)
	res := idx.Query([]uint16{0}, 10)
	if len(res) == 0 {
		t.Skip("term 0 absent from synthetic corpus (unlikely with zipf)")
	}
	for _, r := range res {
		if r.Score <= 0 {
			t.Fatalf("BM25 score must be positive: %+v", r)
		}
	}
}

func TestMoreMatchingTermsScoreHigher(t *testing.T) {
	idx := BuildIndex(100, 200, 3)
	// Query scores add per matching term, so a doc matching both terms
	// beats the same doc scored on one term alone.
	r2 := idx.Query([]uint16{0, 1}, 1)
	r1 := idx.Query([]uint16{0}, 1)
	if len(r1) > 0 && len(r2) > 0 && r2[0].Score < r1[0].Score {
		t.Fatal("adding query terms should not lower the best score")
	}
}

func TestOutOfVocabTermIgnored(t *testing.T) {
	idx := BuildIndex(50, 20, 4)
	res := idx.Query([]uint16{60000}, 5)
	if len(res) != 0 {
		t.Fatal("out-of-vocab terms must not match")
	}
}

func TestProcess(t *testing.T) {
	f := NewFunc(100, 100, 5)
	resp, err := f.Process(query(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp)%8 != 0 {
		t.Fatalf("response len %d not a multiple of 8", len(resp))
	}
	if len(resp) == 0 {
		t.Fatal("expected some results for common terms")
	}
	prev := ^uint32(0)
	_ = prev
	var prevScore uint32 = 1 << 31
	for i := 0; i < len(resp)/8; i++ {
		score := binary.BigEndian.Uint32(resp[8*i+4:])
		if score > prevScore {
			t.Fatal("encoded scores must be descending")
		}
		prevScore = score
	}
}

func TestProcessMalformed(t *testing.T) {
	f := NewFunc(50, 20, 6)
	if _, err := f.Process(nil); err != ErrEmpty {
		t.Fatalf("nil: %v", err)
	}
	if _, err := f.Process([]byte{0}); err != ErrEmpty {
		t.Fatalf("zero terms: %v", err)
	}
	if _, err := f.Process([]byte{3, 0, 1}); err != ErrTruncated {
		t.Fatalf("truncated: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	f := NewFunc(123, 77, 7)
	if f.Index().Vocab() != 123 || f.Index().NumDocs() != 77 {
		t.Fatal("accessors wrong")
	}
}

func TestFactory(t *testing.T) {
	for _, cfg := range []string{"", "2k", "4k"} {
		fn, gen, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.Stream(8, rng.Payload, 0)
		for i := 0; i < 10; i++ {
			if _, err := fn.Process(gen.NextInto(&rng, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	idx := BuildIndex(2000, 2000, 1)
	terms := []uint16{3, 17, 42, 99}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx.Query(terms, 10)
	}
}
