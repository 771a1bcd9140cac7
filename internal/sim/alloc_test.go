package sim

import (
	"testing"
	"time"
)

// sumActor accumulates its int args, exercising the allocation-free
// Actor dispatch path.
type sumActor struct{ sum int }

func (a *sumActor) Act(arg any) { a.sum += arg.(int) }

// warmEngine grows the heap slice, slot table, and free list so the
// steady-state measurements below never hit a growth allocation.
func warmEngine(t *testing.T, e *Engine, events int) {
	t.Helper()
	fn := func() {}
	for i := 0; i < events; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	if err := e.RunAll(uint64(events) * 2); err != nil {
		t.Fatalf("warmup RunAll: %v", err)
	}
}

// TestSchedulePopZeroAllocs pins the engine's core contract: scheduling a
// prebuilt callback and firing it allocates nothing in steady state.
func TestSchedulePopZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	warmEngine(t, e, 1024)
	fn := func() {}
	allocs := testing.AllocsPerRun(10000, func() {
		e.Schedule(time.Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocates %v objects/op, want 0", allocs)
	}
}

// TestScheduleCallZeroAllocs pins the Actor path, relative and absolute,
// including the int-arg conversion to `any` (allocation-free for values
// below 256).
func TestScheduleCallZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	warmEngine(t, e, 1024)
	a := &sumActor{}
	allocs := testing.AllocsPerRun(10000, func() {
		e.ScheduleCall(time.Microsecond, a, 7)
		e.AtCall(e.Now()+time.Microsecond, a, 7)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("ScheduleCall+AtCall+Step allocates %v objects/op, want 0", allocs)
	}
	if a.sum == 0 {
		t.Error("actor never fired")
	}
}

// TestCancelZeroAllocs pins lazy cancellation: canceling a queued event and
// discarding it at pop time allocates nothing.
func TestCancelZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	warmEngine(t, e, 1024)
	fn := func() { t.Error("canceled event fired") }
	allocs := testing.AllocsPerRun(10000, func() {
		ev := e.Schedule(time.Microsecond, fn)
		ev.Cancel()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Cancel+Step allocates %v objects/op, want 0", allocs)
	}
}
