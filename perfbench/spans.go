package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID names a recorded span; noSpan is the parent of a root span and
// what a disabled recorder hands out.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer's public function, made from the
// benchmark's own code.
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Parent spanID        `json:"parent"`
	Run    int64         `json:"run"` // round index, or live trace ID
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so untraced runs pay one nil check per call.
// It is safe for concurrent use.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now()}
}

// start opens a span; end closes it.
func (r *spanRecorder) start(layer, name string, parent spanID, run int64) spanID {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, Run: run, Start: now, End: -1})
	return spanID(len(r.spans) - 1)
}

func (r *spanRecorder) end(id spanID) {
	if r == nil || id == noSpan {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed runs f inside a span and returns its wall time; the span's
// duration and the returned time come from separate clock reads, so the
// untraced path times f identically.
func (r *spanRecorder) timed(layer, name string, parent spanID, run int64, f func(spanID) error) (time.Duration, error) {
	id := r.start(layer, name, parent, run)
	t0 := time.Now()
	err := f(id)
	d := time.Since(t0)
	r.end(id)
	return d, err
}

// snapshot returns a copy of the recorded spans.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSON writes every span to path, one JSON array.
func (r *spanRecorder) writeJSON(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by at least one child. Children may overlap one
// another (concurrent requests under one batch) and may stick out of
// their parent; only the covered part inside the parent counts, once.
// Unclosed spans have no self time.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type interval struct{ lo, hi time.Duration }
		var cover []interval
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				cover = append(cover, interval{lo, hi})
			}
		}
		sort.Slice(cover, func(a, b int) bool { return cover[a].lo < cover[b].lo })
		var covered time.Duration
		cur := interval{-1, -1}
		for _, iv := range cover {
			if iv.lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = iv
				continue
			}
			cur.hi = max(cur.hi, iv.hi)
		}
		covered += cur.hi - cur.lo
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer, in seconds.
func layerSelf(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += d.Seconds()
	}
	return out
}

// coverage is the share of the time of root spans named root that their
// children cover: how much of a measured round the top-level spans
// explain. Overlapping children count once.
func coverage(spans []span, root string) float64 {
	var total, self time.Duration
	for i, d := range selfTimes(spans) {
		if s := spans[i]; s.Parent == noSpan && s.Name == root && s.End >= s.Start {
			total += s.End - s.Start
			self += d
		}
	}
	return ratio((total - self).Seconds(), total.Seconds())
}

// roundTimes keeps a layer-span run's round wall times apart by whether
// the round was traced.
type roundTimes struct{ traced, untraced []float64 }

func (r *roundTimes) add(rec *spanRecorder, d time.Duration) {
	if rec != nil {
		r.traced = append(r.traced, d.Seconds())
	} else {
		r.untraced = append(r.untraced, d.Seconds())
	}
}

// spanLayers are the layers whose self time a traced run reports, per
// traced round. The figures.dist layer is the one-off exported-driver
// pass of figures-quick and is reported as its total.
var spanLayers = []string{"bench", "core", "telemetry", "figures", "live", "victimd"}

// addSpanMetrics adds the layer-span run's own metrics: self time per
// layer per traced round, how much of a round its top-level spans explain,
// the tracing overhead — the traced rounds' median time over the untraced
// rounds' median, minus one — and the untraced rounds' own spread, the
// noise any comparison of this workload's timings has to beat.
func addSpanMetrics(m map[string]float64, spans []span, rt roundTimes) {
	traced, untraced := rt.traced, rt.untraced
	rounds := len(traced)
	self := layerSelf(spans)
	for _, l := range spanLayers {
		m["self_s."+l] = ratio(self[l], float64(rounds))
	}
	m["self_s.figures.dist"] = self["figures.dist"]
	m["spans.per_round"] = ratio(float64(len(spans)), float64(rounds))
	m["spans.coverage"] = coverage(spans, "round")
	m["spans.overhead_share"] = ratio(median(traced), median(untraced)) - 1
	if q1, q3, err := quartiles(untraced); err == nil {
		m["bench.round_spread"] = ratio(q3-q1, median(untraced))
	}
}
