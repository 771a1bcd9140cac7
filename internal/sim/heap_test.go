package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refEvent is one scheduled event as the reference model sees it.
type refEvent struct {
	at     time.Duration
	seq    int
	tag    int
	h      Event
	queued bool
	// canceled is set by a Cancel that reached the event while queued.
	canceled bool
	// reused is set once a later event on the same slot has been popped,
	// after which the handle is stale.
	reused bool
}

// tagPayload is the pointer-shaped arg of Actor-path events, so a slot
// that kept it after firing would keep it reachable.
type tagPayload struct{ tag int }

// tagActor logs the tag of every Actor-path event it fires.
type tagActor struct{ fired *[]int }

func (a tagActor) Act(arg any) { *a.fired = append(*a.fired, arg.(*tagPayload).tag) }

// TestEngineMatchesSortedReference drives random interleavings of
// Schedule, ScheduleCall, At, Cancel, and Step against a reference that
// keeps every event in a plain list and pops the (at, seq) minimum. It
// checks the fired order and clock, that Pending counts canceled entries
// until they are discarded, that Canceled answers correctly on live,
// just-popped, and stale (recycled-slot) handles, and that no released
// slot retains a callback or arg.
func TestEngineMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var fired []int
		actor := tagActor{fired: &fired}
		var all []*refEvent
		var queue []*refEvent // queued reference events, unordered
		stale := 0

		schedule := func() {
			r := &refEvent{seq: len(all), tag: len(all), queued: true}
			delay := time.Duration(rng.Intn(5)-1) * time.Microsecond
			r.at = e.Now() + max(delay, 0)
			switch rng.Intn(3) {
			case 0:
				tag := r.tag
				r.h = e.Schedule(delay, func() { fired = append(fired, tag) })
			case 1:
				r.h = e.ScheduleCall(delay, actor, &tagPayload{tag: r.tag})
			default:
				tag := r.tag
				r.h = e.At(e.Now()+delay, func() { fired = append(fired, tag) })
			}
			if r.h.Time() != r.at {
				t.Fatalf("seed %d: event %d scheduled at %v, reference %v", seed, r.tag, r.h.Time(), r.at)
			}
			all = append(all, r)
			queue = append(queue, r)
		}
		// popRef removes the reference's (at, seq) minimum and marks every
		// older handle on the same slot stale.
		popRef := func() *refEvent {
			best := 0
			for i, r := range queue {
				if r.at < queue[best].at || (r.at == queue[best].at && r.seq < queue[best].seq) {
					best = i
				}
			}
			r := queue[best]
			queue = append(queue[:best], queue[best+1:]...)
			r.queued = false
			for _, o := range all {
				if o != r && !o.queued && o.h.id == r.h.id && o.seq < r.seq {
					o.reused = true
				}
			}
			return r
		}
		step := func() {
			var want *refEvent
			for len(queue) > 0 {
				if r := popRef(); !r.canceled {
					want = r
					break
				}
			}
			before := len(fired)
			ok := e.Step()
			if ok != (want != nil) {
				t.Fatalf("seed %d: Step() = %v, reference has live event: %v", seed, ok, want != nil)
			}
			if want == nil {
				return
			}
			if len(fired) != before+1 || fired[before] != want.tag {
				t.Fatalf("seed %d: fired %v, want tag %d", seed, fired[before:], want.tag)
			}
			if e.Now() != want.at {
				t.Fatalf("seed %d: clock %v after firing event %d, want %v", seed, e.Now(), want.tag, want.at)
			}
		}

		for op := 0; op < 3000; op++ {
			// Alternate growth and drain phases so the heap depth varies.
			grow := (op/400)%2 == 0
			switch p := rng.Intn(10); {
			case p < 4 && grow, p < 2:
				schedule()
			case p < 6 && len(all) > 0:
				r := all[rng.Intn(len(all))]
				r.h.Cancel()
				if r.queued {
					r.canceled = true
				}
			default:
				step()
			}

			if e.Pending() != len(queue) {
				t.Fatalf("seed %d op %d: Pending() = %d, reference %d", seed, op, e.Pending(), len(queue))
			}
			for _, r := range all {
				want := r.canceled && !r.reused
				if r.reused {
					stale++
				}
				if got := r.h.Canceled(); got != want {
					t.Fatalf("seed %d op %d: event %d (queued=%v reused=%v) Canceled() = %v, want %v",
						seed, op, r.tag, r.queued, r.reused, got, want)
				}
			}
			for _, id := range e.free {
				if s := e.slots[id]; s.fn != nil || s.actor != nil || s.arg != nil {
					t.Fatalf("seed %d op %d: released slot %d retains its callback or arg", seed, op, id)
				}
			}
		}
		for len(queue) > 0 || e.Pending() > 0 {
			step()
		}
		if stale == 0 {
			t.Fatalf("seed %d: no stale handle was ever checked", seed)
		}
	}
}
