package queueing

import (
	"testing"
	"time"

	"memca/internal/sim"
)

// TestSubmitRecycleZeroAllocs pins the request-pooling contract: once the
// pools and stats buffers are warm, a submit → service → complete →
// recycle round trip performs no heap allocations, including an attack
// burst's capacity flanks (multiplier and scale changes that reschedule
// the in-flight service) and, with a hop delay, the network's own hop
// events. (Stats-history appends still double occasionally; the
// integer-averaged AllocsPerRun result absorbs that amortized tail.)
func TestSubmitRecycleZeroAllocs(t *testing.T) {
	for _, hop := range []sim.Dist{nil, sim.NewDeterministic(10 * time.Microsecond)} {
		e := sim.NewEngine(11)
		n, err := New(e, Config{
			Mode:     ModeNTierRPC,
			Tiers:    []TierConfig{{Name: "only", QueueLimit: Infinite, Servers: 1, Service: sim.NewExponential(50 * time.Microsecond)}},
			Classes:  []Class{{Name: "basic", Depth: 0}},
			HopDelay: hop,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		completions := 0
		onComplete := func(*Request) { completions++ }
		submitOne := func() {
			if _, err := n.Submit(SubmitOpts{Class: 0, OnComplete: onComplete}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			for _, f := range [...]float64{0.5, 1} {
				if err := n.SetCapacityMultiplier(0, f); err != nil {
					t.Fatalf("SetCapacityMultiplier: %v", err)
				}
				if err := n.SetCapacityScale(0, f); err != nil {
					t.Fatalf("SetCapacityScale: %v", err)
				}
			}
			if err := e.RunAll(100); err != nil {
				t.Fatalf("RunAll: %v", err)
			}
		}
		// Warm the request/run pools and grow the stats buffers.
		for i := 0; i < 4096; i++ {
			submitOne()
		}
		allocs := testing.AllocsPerRun(10000, submitOne)
		if allocs != 0 {
			t.Errorf("hop delay %v: submit/flank/complete/recycle allocates %v objects/op, want 0", hop, allocs)
		}
		if completions == 0 {
			t.Errorf("hop delay %v: no completions observed", hop)
		}
	}
}

// TestRecycledRequestNoAliasing pins the reset contract: a recycled
// Request must not leak any prior-run field — timestamps, attempt counts,
// user data, or callbacks — into the next submission's statistics.
func TestRecycledRequestNoAliasing(t *testing.T) {
	e := sim.NewEngine(5)
	n := threeTier(t, e, 100, 100, 100, true)

	var firstPtr *Request
	first, err := n.Submit(SubmitOpts{
		Class:        0,
		FirstAttempt: 3 * time.Second,
		Attempt:      4,
		UserData:     "stale-user-data",
		OnComplete:   func(r *Request) { firstPtr = r },
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if first.Attempt != 4 || first.UserData != "stale-user-data" {
		t.Fatalf("submitted request lost its options: %+v", first)
	}
	if err := e.RunAll(1000); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if firstPtr == nil {
		t.Fatal("first request never completed")
	}

	second, err := n.Submit(SubmitOpts{Class: 0})
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if second != firstPtr {
		// Pooling should hand the recycled object back; if it ever does
		// not, the aliasing checks below are vacuous, so flag it.
		t.Fatalf("expected recycled request, got a fresh allocation")
	}
	if second.Attempt != 0 {
		t.Errorf("recycled Attempt = %d, want 0", second.Attempt)
	}
	if second.UserData != nil {
		t.Errorf("recycled UserData = %v, want nil", second.UserData)
	}
	if second.Done != 0 {
		t.Errorf("recycled Done = %v, want 0", second.Done)
	}
	if second.Dropped {
		t.Error("recycled Dropped = true, want false")
	}
	if second.FirstAttempt != e.Now() {
		t.Errorf("recycled FirstAttempt = %v, want now (%v)", second.FirstAttempt, e.Now())
	}
	// The prior run visited three tiers and stamped all six timestamps;
	// none may survive into the new attempt beyond the fresh admission.
	for i, at := range second.TierArrive {
		if i > 0 && at != 0 {
			t.Errorf("recycled TierArrive[%d] = %v, want 0", i, at)
		}
	}
	for i, lv := range second.TierLeave {
		if lv != 0 {
			t.Errorf("recycled TierLeave[%d] = %v, want 0", i, lv)
		}
	}
	if rt := second.TierRT(2); rt != 0 {
		t.Errorf("recycled TierRT(2) = %v, want 0 before the tier is reached", rt)
	}
}
