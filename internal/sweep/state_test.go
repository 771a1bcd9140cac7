package sweep

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// trackedState is a per-worker scratch object whose lifecycle the tests
// observe: acquire/release pairing, exclusive ownership during a job, and
// how many jobs each state served.
type trackedState struct {
	id     int
	inUse  atomic.Bool
	served int
}

// stateTracker hands out trackedStates and remembers every one, so tests
// can audit the full population after a sweep.
type stateTracker struct {
	mu       sync.Mutex
	states   []*trackedState
	released int
}

func (st *stateTracker) acquire() *trackedState {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := &trackedState{id: len(st.states)}
	st.states = append(st.states, s)
	return s
}

func (st *stateTracker) release(s *trackedState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s == nil {
		return
	}
	st.released++
}

// audit checks the invariants every sweep must leave behind: one release
// per acquire, no state still marked in-use, at most `workers` states, and
// (when the sweep succeeded) all n jobs accounted for.
func (st *stateTracker) audit(t *testing.T, workers int, wantServed int) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.released != len(st.states) {
		t.Errorf("acquired %d states but released %d", len(st.states), st.released)
	}
	if len(st.states) > workers {
		t.Errorf("acquired %d states for %d workers", len(st.states), workers)
	}
	served := 0
	for _, s := range st.states {
		if s.inUse.Load() {
			t.Errorf("state %d still marked in-use after sweep", s.id)
		}
		served += s.served
	}
	if wantServed >= 0 && served != wantServed {
		t.Errorf("states served %d jobs total, want %d", served, wantServed)
	}
}

// TestRunStateAcquirePerWorker pins the RunState contract that the figure
// drivers' per-worker arenas rely on: each worker acquires exactly one
// state, owns it exclusively for every job it runs, and releases it at
// worker exit.
func TestRunStateAcquirePerWorker(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		const jobs = 100
		tracker := &stateTracker{}
		res, err := RunState(context.Background(), Options{Workers: workers}, jobs,
			tracker.acquire, tracker.release,
			func(_ context.Context, s *trackedState, i int) (int, error) {
				if !s.inUse.CompareAndSwap(false, true) {
					return 0, errors.New("state shared between concurrent jobs")
				}
				rng := rand.New(rand.NewSource(DeriveSeed(3, i)))
				spin(rng)
				s.served++
				if !s.inUse.CompareAndSwap(true, false) {
					return 0, errors.New("state ownership lost mid-job")
				}
				return i, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range res {
			if v != i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
		tracker.audit(t, workers, jobs)
	}
}

// TestRunStateReleaseOnFailure checks that a failing job still leads to
// every acquired state being released exactly once — workers that exit
// early on the recorded failure included.
func TestRunStateReleaseOnFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		boom := errors.New("boom")
		tracker := &stateTracker{}
		_, err := RunState(context.Background(), Options{Workers: workers}, 64,
			tracker.acquire, tracker.release,
			func(_ context.Context, s *trackedState, i int) (int, error) {
				s.served++
				if i == 13 {
					return 0, boom
				}
				return i, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("%d workers: err = %v, want %v", workers, err, boom)
		}
		tracker.audit(t, workers, -1)
	}
}

// TestRunStateReleaseOnCancellation cancels the caller's context mid-sweep
// and checks that the sweep reports the cancellation and still releases
// every state, so pooled resources (arenas) are never leaked by an
// interrupted run.
func TestRunStateReleaseOnCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		tracker := &stateTracker{}
		var done atomic.Int64
		_, err := RunState(ctx, Options{Workers: workers}, 500,
			tracker.acquire, tracker.release,
			func(ctx context.Context, s *trackedState, i int) (int, error) {
				s.served++
				if done.Add(1) == 40 {
					cancel()
				}
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				default:
					return i, nil
				}
			})
		if err == nil {
			t.Fatalf("%d workers: canceled sweep reported success", workers)
		}
		tracker.audit(t, workers, -1)
	}
}

// TestRunStateNilHooks covers the Run delegation shape: nil acquire and
// release are valid and the sweep behaves exactly like Run.
func TestRunStateNilHooks(t *testing.T) {
	res, err := RunState(context.Background(), Options{Workers: 3}, 9, nil, nil,
		func(_ context.Context, _ struct{}, i int) (int, error) { return i * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != i*2 {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*2)
		}
	}
}

// TestRunStateNilJobRejected mirrors Run's nil-job validation.
func TestRunStateNilJobRejected(t *testing.T) {
	if _, err := RunState[int, struct{}](context.Background(), Options{}, 4, nil, nil, nil); err == nil {
		t.Fatal("nil job accepted")
	}
}
