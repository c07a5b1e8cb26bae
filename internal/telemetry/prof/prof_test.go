package prof

import (
	"testing"

	"halsim/internal/sim"
)

func TestLaneWindowAggregates(t *testing.T) {
	r := NewRecorder([]string{"a", "b"})
	l := r.LaneAt(0)
	l.Window(0, 10, 1)        // paced by peer b
	l.Window(10, 10, 1)       // degenerate: counted, no span stored
	l.Window(10, 30, BindEnd) // free to the round end
	l.Window(30, 40, BindSelf)
	if l.WindowCount != 4 {
		t.Fatalf("WindowCount = %d, want 4", l.WindowCount)
	}
	if len(l.Windows) != 3 {
		t.Fatalf("stored spans = %d, want 3 (degenerate window dropped)", len(l.Windows))
	}
	if l.BoundBy[1] != 2 || l.BoundByEnd != 1 || l.BoundBySelf != 1 {
		t.Fatalf("binder counts: BoundBy=%v end=%d self=%d", l.BoundBy, l.BoundByEnd, l.BoundBySelf)
	}
	if l.SpanTime != 40 || l.PacedTime != 20 {
		t.Fatalf("SpanTime=%v PacedTime=%v, want 40/20", l.SpanTime, l.PacedTime)
	}
	if got := r.PacedShare(0); got != 0.5 {
		t.Fatalf("PacedShare = %v, want 0.5", got)
	}
}

func TestLaneWindowTruncation(t *testing.T) {
	r := NewRecorder([]string{"a"})
	l := r.LaneAt(0)
	for i := 0; i < maxWindowSpans+10; i++ {
		at := sim.Time(i * 2)
		l.Window(at, at+1, BindEnd)
	}
	if len(l.Windows) != maxWindowSpans {
		t.Fatalf("stored %d spans, want cap %d", len(l.Windows), maxWindowSpans)
	}
	if l.WindowsTruncated != 10 {
		t.Fatalf("truncated = %d, want 10", l.WindowsTruncated)
	}
	// Aggregates stay exact past the cap.
	if l.WindowCount != uint64(maxWindowSpans+10) || l.SpanTime != sim.Time(maxWindowSpans+10) {
		t.Fatalf("aggregates truncated: count=%d span=%v", l.WindowCount, l.SpanTime)
	}
}

func TestTopStallEdgesOrdering(t *testing.T) {
	r := NewRecorder([]string{"a", "b", "c"})
	// b capped by a 3×, c capped by a 3× (tie → src/dst order), c self 1×.
	for i := 0; i < 3; i++ {
		r.LaneAt(1).Window(sim.Time(i*10), sim.Time(i*10+5), 0)
		r.LaneAt(2).Window(sim.Time(i*10), sim.Time(i*10+5), 0)
	}
	r.LaneAt(2).Window(30, 35, BindSelf)
	edges := r.TopStallEdges()
	if len(edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(edges))
	}
	if edges[0].SrcName != "a" || edges[0].DstName != "b" || edges[0].Windows != 3 {
		t.Fatalf("edge 0 wrong: %+v", edges[0])
	}
	if edges[1].SrcName != "a" || edges[1].DstName != "c" {
		t.Fatalf("edge 1 wrong: %+v", edges[1])
	}
	if edges[2].Src != 2 || edges[2].Dst != 2 || edges[2].Windows != 1 {
		t.Fatalf("self edge wrong: %+v", edges[2])
	}
	var total float64
	for _, e := range edges {
		total += e.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v, want 1", total)
	}
	if e, ok := r.BindingLink(); !ok || e.DstName != "b" {
		t.Fatalf("BindingLink = %+v/%v, want a->b", e, ok)
	}
}

func TestBindingLinkEmpty(t *testing.T) {
	r := NewRecorder([]string{"a"})
	r.LaneAt(0).Window(0, 10, BindEnd)
	if _, ok := r.BindingLink(); ok {
		t.Fatal("BindingLink reported an edge with only round-end windows")
	}
}
