package main

import (
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "round", Layer: "bench", Parent: noSpan, Start: ms(0), End: ms(100)},
		// Two concurrent children overlapping on [20, 30], and one that
		// starts before its parent ends and runs past it.
		{Name: "a", Layer: "live", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Layer: "live", Parent: 0, Start: ms(20), End: ms(40)},
		{Name: "c", Layer: "live", Parent: 0, Start: ms(90), End: ms(120)},
		// A grandchild covers part of a; it does not cover round.
		{Name: "a1", Layer: "core", Parent: 1, Start: ms(12), End: ms(18)},
		// An unclosed span has no self time.
		{Name: "open", Layer: "core", Parent: noSpan, Start: ms(5), End: -1},
	}
	want := []time.Duration{
		ms(100) - ms(30) - ms(10), // covered: [10,40] and [90,100]
		ms(20) - ms(6),
		ms(20),
		ms(30),
		ms(6),
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if l := layers["live"]; l != (ms(14) + ms(20) + ms(30)).Seconds() {
		t.Errorf("live self = %v", l)
	}
	if c := coverage(spans, "round"); math.Abs(c-0.4) > 1e-12 {
		t.Errorf("coverage = %v, want 0.4", c)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *spanRecorder
	called := false
	d, err := r.timed("core", "x", noSpan, 0, func(id spanID) error {
		called = id == noSpan
		return nil
	})
	if err != nil || !called || d < 0 || r.snapshot() != nil {
		t.Fatalf("nil recorder: called=%v d=%v err=%v", called, d, err)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newSpanRecorder()
	_, _ = r.timed("bench", "round", noSpan, 7, func(parent spanID) error {
		_, err := r.timed("core", "core.Run", parent, 7, func(spanID) error { return nil })
		return err
	})
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != 0 || s[0].Parent != noSpan || s[1].Run != 7 {
		t.Fatalf("spans = %+v", s)
	}
	for _, x := range s {
		if x.End < x.Start {
			t.Errorf("span %s not closed", x.Name)
		}
	}
}
