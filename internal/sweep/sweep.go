// Package sweep is the parallelism layer of the experiment pipeline: it
// fans N independent, seed-deterministic jobs out over a bounded worker
// pool and hands the results back in job-index order.
//
// The engine guarantees that a sweep's outcome is a pure function of its
// inputs, independent of the worker count and of the order in which jobs
// happen to finish:
//
//   - every job is identified by its index and must derive all of its
//     randomness from that index (typically via DeriveSeed), never from
//     shared mutable state;
//   - results are buffered and returned in job-index order, so artifact
//     writers that iterate the result slice produce byte-identical output
//     for workers = 1 and workers = N;
//   - when jobs fail, the error of the lowest-indexed failing job is
//     returned — the same error the serial path would have surfaced first.
//
// The package contains no randomness and never reads the wall clock; it
// is on the simulated side of the clock boundary (see DESIGN.md) even
// though it uses real goroutines, because the goroutines only carry
// independent single-threaded simulations.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job computes the index-th result of a sweep. Implementations must be
// pure functions of the index (plus read-only captured configuration):
// any randomness must come from a generator seeded via the index, and no
// mutable state may be shared between jobs. The context is canceled when
// another job fails or the caller cancels the sweep; long-running jobs
// may honor it, but ignoring it only delays shutdown, never corrupts
// results.
type Job[T any] func(ctx context.Context, index int) (T, error)

// Options tune one sweep.
type Options struct {
	// Workers bounds concurrency: at most Workers jobs run at once.
	// Zero or negative means one worker per available CPU
	// (runtime.GOMAXPROCS); 1 forces the serial path. The results are
	// identical for every value.
	Workers int

	// Progress, when non-nil, is called after each job completes, with
	// the number of completed jobs and the total. Calls are serialized
	// (never concurrent) but arrive in completion order, which is not
	// deterministic under parallelism; treat it as a display hook, not
	// a result channel.
	Progress func(done, total int)
}

// workerCount resolves Options.Workers against the job count.
func (o Options) workerCount(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes jobs 0..n-1 over the worker pool and returns their results
// in job-index order. Indices are dispatched in ascending order, so with
// Workers = 1 the execution order is exactly the serial loop's.
//
// On failure the remaining undispatched jobs are abandoned, in-flight
// jobs run to completion (or observe ctx and stop early), and the error
// of the lowest-indexed failing job is returned — deterministically,
// because a lower-indexed failing job is always dispatched before the
// failure that stopped the sweep. If the caller's context is canceled
// and no job failed, Run returns the context's error even when every
// job happened to complete.
func Run[T any](ctx context.Context, opts Options, n int, job Job[T]) ([]T, error) {
	if job == nil {
		return nil, fmt.Errorf("sweep: job must not be nil")
	}
	return RunState(ctx, opts, n, nil, nil,
		func(ctx context.Context, _ struct{}, i int) (T, error) { return job(ctx, i) })
}

// StateJob computes the index-th result of a sweep using per-worker
// scratch state. The same purity rules as Job apply, with one relaxation:
// state is owned exclusively by the calling worker for the duration of the
// call, so jobs may mutate it freely — but the result must not depend on
// what previous jobs left inside (reset it, or treat it as storage whose
// contents never reach the output). That is exactly the contract of a
// stats.Arena reset between jobs.
type StateJob[T, S any] func(ctx context.Context, state S, index int) (T, error)

// RunState is Run with per-worker scratch state: each worker calls acquire
// once when it starts, passes the state to every job it executes, and
// calls release when it exits (on success, failure, and cancellation
// alike). It exists so expensive reusable resources — a stats.Arena, a
// scratch buffer pool — are paid for once per worker, not once per job,
// while keeping the job functions pure in everything that reaches the
// results. Either of acquire and release may be nil.
func RunState[T, S any](ctx context.Context, opts Options, n int, acquire func() S, release func(S), job StateJob[T, S]) ([]T, error) {
	if job == nil {
		return nil, fmt.Errorf("sweep: job must not be nil")
	}
	if n < 0 {
		return nil, fmt.Errorf("sweep: job count must be non-negative, got %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if opts.workerCount(n) == 1 {
		return runSerial(ctx, opts, n, acquire, release, job)
	}

	results := make([]T, n)
	errs := make([]error, n)
	ran := make([]bool, n)

	// minFailed tracks the lowest failing job index (n when none). A
	// worker skips any index above a recorded failure, which preserves
	// serial first-error semantics (with one worker, nothing after the
	// failure runs) without ever skipping a lower-indexed job — so the
	// reported error is deterministically the lowest-indexed failure.
	var minFailed atomic.Int64
	minFailed.Store(int64(n))

	// Dispatch indices in ascending order; stop feeding on cancellation.
	indices := make(chan int)
	go func() {
		defer close(indices)
		for i := 0; i < n; i++ {
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		progressMu sync.Mutex
		done       int
	)
	finish := func() {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		d := done
		opts.Progress(d, n)
		progressMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := opts.workerCount(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var state S
			if acquire != nil {
				state = acquire()
			}
			if release != nil {
				defer release(state)
			}
			for i := range indices {
				if minFailed.Load() < int64(i) {
					return
				}
				res, err := job(ctx, state, i)
				ran[i] = true
				if err != nil {
					errs[i] = err
					for {
						cur := minFailed.Load()
						if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					cancel()
					continue
				}
				results[i] = res
				finish()
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: job %d: %w", i, err)
		}
	}
	// No job failed, so the derived context can only have been canceled
	// from the caller's side; a canceled sweep never reports success,
	// even when every job happened to finish first.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range ran {
		if !ran[i] {
			return nil, fmt.Errorf("sweep: job %d never ran", i)
		}
	}
	return results, nil
}

// runSerial is RunState's one-worker path: the same dispatch order,
// state lifecycle, progress calls and error semantics, run inline on the
// caller's goroutine. A serial sweep starts no goroutines, so its
// allocation count does not depend on GOMAXPROCS.
func runSerial[T, S any](ctx context.Context, opts Options, n int, acquire func() S, release func(S), job StateJob[T, S]) ([]T, error) {
	var state S
	if acquire != nil {
		state = acquire()
	}
	if release != nil {
		defer release(state)
	}
	results := make([]T, n)
	for i := range results {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := job(ctx, state, i)
		if err != nil {
			return nil, fmt.Errorf("sweep: job %d: %w", i, err)
		}
		results[i] = res
		if opts.Progress != nil {
			opts.Progress(i+1, n)
		}
	}
	// A canceled sweep never reports success, even when every job
	// happened to finish first.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
