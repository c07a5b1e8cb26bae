// Package bm25fn implements the BM25 search-ranking benchmark function
// (Table IV, after Robertson & Zaragoza): an inverted index over a
// synthetic corpus scored with the Okapi BM25 probabilistic relevance
// formula, configured with a 2K- or 4K-term vocabulary.
package bm25fn

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"

	"halsim/internal/nf"
	"halsim/internal/rng"
)

// BM25 free parameters (standard Okapi defaults).
const (
	K1 = 1.2
	B  = 0.75
)

// Request layout: count[1] then count×term[2] big-endian term IDs.
// Response layout: topK entries of docID[4] score-milli[4] (score ×1000,
// truncated), best first.
const topK = 10

// Errors for malformed requests.
var (
	ErrEmpty     = errors.New("bm25fn: empty query")
	ErrTruncated = errors.New("bm25fn: query shorter than declared")
)

type posting struct {
	doc uint32
	tf  uint16
}

// Index is a BM25-scored inverted index.
type Index struct {
	vocab    int
	postings [][]posting
	docLen   []int
	avgDL    float64
	idf      []float64
}

// BuildIndex synthesizes a corpus of numDocs documents over a vocab-term
// vocabulary with a Zipf-like term distribution and builds the index.
// Deterministic for a given seed.
func BuildIndex(vocab, numDocs int, seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	idx := &Index{
		vocab:    vocab,
		postings: make([][]posting, vocab),
		docLen:   make([]int, numDocs),
	}
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(vocab-1))
	df := make([]int, vocab)
	var totalLen int
	for d := 0; d < numDocs; d++ {
		dl := 64 + rng.Intn(192)
		idx.docLen[d] = dl
		totalLen += dl
		seen := map[uint64]uint16{}
		for i := 0; i < dl; i++ {
			seen[zipf.Uint64()]++
		}
		for term, tf := range seen {
			idx.postings[term] = append(idx.postings[term], posting{doc: uint32(d), tf: tf})
			df[term]++
		}
	}
	idx.avgDL = float64(totalLen) / float64(numDocs)
	idx.idf = make([]float64, vocab)
	n := float64(numDocs)
	for t := 0; t < vocab; t++ {
		// BM25 idf with the +1 inside the log to keep it positive.
		idx.idf[t] = math.Log(1 + (n-float64(df[t])+0.5)/(float64(df[t])+0.5))
	}
	for t := range idx.postings {
		sort.Slice(idx.postings[t], func(i, j int) bool {
			return idx.postings[t][i].doc < idx.postings[t][j].doc
		})
	}
	return idx
}

// Vocab returns the vocabulary size.
func (idx *Index) Vocab() int { return idx.vocab }

// NumDocs returns the corpus size.
func (idx *Index) NumDocs() int { return len(idx.docLen) }

// Result is one ranked document.
type Result struct {
	Doc   uint32
	Score float64
}

// Query scores all documents containing any query term and returns the top
// k by BM25 score (best first, ties broken by doc ID for determinism).
func (idx *Index) Query(terms []uint16, k int) []Result {
	scores := map[uint32]float64{}
	for _, t := range terms {
		if int(t) >= idx.vocab {
			continue
		}
		idf := idx.idf[t]
		for _, p := range idx.postings[t] {
			tf := float64(p.tf)
			dl := float64(idx.docLen[p.doc])
			scores[p.doc] += idf * tf * (K1 + 1) / (tf + K1*(1-B+B*dl/idx.avgDL))
		}
	}
	res := make([]Result, 0, len(scores))
	for d, s := range scores {
		res = append(res, Result{Doc: d, Score: s})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score != res[j].Score {
			return res[i].Score > res[j].Score
		}
		return res[i].Doc < res[j].Doc
	})
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// Func is the BM25 network function.
type Func struct {
	idx *Index
}

// NewFunc returns a BM25 function over a freshly built index.
func NewFunc(vocab, numDocs int, seed int64) *Func {
	return &Func{idx: BuildIndex(vocab, numDocs, seed)}
}

// ID implements nf.Function.
func (f *Func) ID() nf.ID { return nf.BM25 }

// Index exposes the underlying index.
func (f *Func) Index() *Index { return f.idx }

// Process parses a query payload, ranks, and returns the top-k list.
func (f *Func) Process(req []byte) ([]byte, error) {
	if len(req) < 1 {
		return nil, ErrEmpty
	}
	n := int(req[0])
	if n == 0 {
		return nil, ErrEmpty
	}
	if len(req) < 1+2*n {
		return nil, ErrTruncated
	}
	terms := make([]uint16, n)
	for i := 0; i < n; i++ {
		terms[i] = binary.BigEndian.Uint16(req[1+2*i:])
	}
	res := f.idx.Query(terms, topK)
	resp := make([]byte, 8*len(res))
	for i, r := range res {
		binary.BigEndian.PutUint32(resp[8*i:], r.Doc)
		binary.BigEndian.PutUint32(resp[8*i+4:], uint32(r.Score*1000))
	}
	return resp, nil
}

// gen emits queries of 2-7 terms drawn uniformly from the vocabulary.
type gen struct {
	vocab int
}

// terms draws a query's term count, its stream's first draw.
func terms(rng *rng.Rand) int { return 2 + rng.Intn(6) }

// NextLen implements nf.RequestGen: it replays the term-count draw.
func (g gen) NextLen(rng *rng.Rand) int { return 1 + 2*terms(rng) }

// NextInto implements nf.RequestGen.
func (g gen) NextInto(rng *rng.Rand, buf []byte) []byte {
	n := terms(rng)
	b := nf.Reserve(buf, 1+2*n)
	b[0] = byte(n)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint16(b[1+2*i:], uint16(rng.Intn(g.vocab)))
	}
	return b
}

// New builds a BM25 function and its request generator. config "" or
// "2k" selects a 2,000-term vocabulary, "4k" 4,000.
func New(config string) (nf.Function, nf.RequestGen, error) {
	vocab := 2000
	if config == "4k" {
		vocab = 4000
	}
	return NewFunc(vocab, 2000, 1), gen{vocab: vocab}, nil
}
