package stats

import (
	"testing"
	"time"
)

// statsPass is one simulated run's worth of stats work against a single
// arena: check out every kernel type, record past the initial capacity
// hints (forcing the slab trade-up path), query, and recycle. After
// warm-up this must not touch the heap at all.
func statsPass(a *Arena) {
	defer a.Reset()
	s := a.Sample(1024)
	h := a.LatencyHistogram()
	li := a.LevelIntegrator()
	ts := a.TimeSeries("alloc-probe")
	for i := 0; i < 4096; i++ {
		d := time.Duration(i%977) * time.Millisecond
		s.Add(d)
		h.Add(d)
		li.Set(time.Duration(i)*time.Millisecond, float64(i%3))
		li.Add(time.Duration(i)*time.Millisecond, 1)
		ts.Add(time.Duration(i)*time.Millisecond, float64(i%7))
	}
	_ = s.Quantile(0.99) // radix path: n >= radixMinLen
	_ = s.Mean()
	_ = s.Max()
	_ = h.Quantile(0.99)
	_ = li.Integral(4096 * time.Millisecond)
}

// TestArenaStatsPathZeroAllocs is the gated allocation contract behind the
// tentpole: after warm-up, a full checkout → record → sort/query → Reset
// cycle performs zero heap allocations, so a figure run's stats path costs
// nothing in steady state. The contract mirrors the telemetry tracer's
// zero-alloc submit test; the regression gate lives in
// BenchmarkStatsRecord via bench/baseline.json.
func TestArenaStatsPathZeroAllocs(t *testing.T) {
	a := NewArena()
	// Warm the slab classes, the object shells, and the free-list spines.
	for i := 0; i < 8; i++ {
		statsPass(a)
	}
	if allocs := testing.AllocsPerRun(100, func() { statsPass(a) }); allocs != 0 {
		t.Errorf("stats pass allocated %.1f objects per run after warm-up, want 0", allocs)
	}
	if st := a.Stats(); st.Spills != 0 {
		t.Errorf("stats pass spilled %d slabs past the default budget", st.Spills)
	}
}

// TestArenaBudgetSpillAccounting pins the horizon cap: growth past the
// byte budget still succeeds (results stay exact) but is booked as spills
// with the overrun bytes, and pooled storage is re-counted only once.
func TestArenaBudgetSpillAccounting(t *testing.T) {
	a := NewArena()
	a.SetBudgetBytes(8 << 10) // one minimum slab (1024 durations × 8 bytes) fits exactly
	s := a.Sample(1024)
	if st := a.Stats(); st.Spills != 0 {
		t.Fatalf("first in-budget slab counted as spill: %+v", st)
	}
	for i := 0; i < 2048; i++ { // grow past the budgeted slab
		s.Add(time.Duration(i))
	}
	st := a.Stats()
	if st.Spills == 0 || st.SpillBytes == 0 {
		t.Fatalf("over-budget growth not recorded as spill: %+v", st)
	}
	if st.OwnedBytes <= st.BudgetBytes {
		t.Fatalf("owned bytes %d not past budget %d despite spill", st.OwnedBytes, st.BudgetBytes)
	}
	if got, want := s.Len(), 2048; got != want {
		t.Fatalf("spilled sample lost observations: len %d, want %d", got, want)
	}
	spillsBefore := st.Spills
	a.Reset()
	s = a.Sample(1024)
	for i := 0; i < 2048; i++ {
		s.Add(time.Duration(i))
	}
	if st := a.Stats(); st.Spills != spillsBefore {
		t.Fatalf("recycled slabs re-counted as spills: %d -> %d", spillsBefore, st.Spills)
	}
}

// TestArenaTrimDropsLargestSlabsFirst pins the pool's retention rule:
// trimming releases pooled slabs largest class first, un-accounts their
// bytes, keeps the smaller warm slabs, and leaves the arena serving
// exact records.
func TestArenaTrimDropsLargestSlabsFirst(t *testing.T) {
	a := NewArena()
	// One pooled slab each of 1024, 4096 and 16384 durations: 8, 32 and
	// 128 KiB.
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		a.putDur(a.getDur(n))
	}
	if got := a.Stats().OwnedBytes; got != 168<<10 {
		t.Fatalf("owned %d bytes before trim, want %d", got, 168<<10)
	}
	a.trim(100 << 10)
	if got := a.Stats().OwnedBytes; got != 40<<10 {
		t.Fatalf("owned %d bytes after trim, want %d", got, 40<<10)
	}
	if len(a.durFree[14]) != 0 || len(a.durFree[12]) != 1 || len(a.durFree[10]) != 1 {
		t.Fatalf("trim kept classes 10/12/14 = %d/%d/%d slabs, want 1/1/0",
			len(a.durFree[10]), len(a.durFree[12]), len(a.durFree[14]))
	}
	s := a.Sample(1 << 14)
	for i := 0; i < 1<<14; i++ {
		s.Add(time.Duration(i))
	}
	if s.Len() != 1<<14 || s.Quantile(1) != time.Duration(1<<14-1) {
		t.Fatalf("trimmed arena recorded %d values, max %v", s.Len(), s.Quantile(1))
	}
}

// TestPutArenaCapsPooledStorage checks that an arena goes back to the
// process-wide pool owning at most poolRetainBytes, so one large run does
// not pin its slabs for the life of the process.
func TestPutArenaCapsPooledStorage(t *testing.T) {
	a := NewArena()
	a.putDur(a.getDur(1 << minClassBits))
	a.putPts(a.getPts(int(poolRetainBytes / ptBytes)))
	PutArena(a)
	if got, want := a.Stats().OwnedBytes, int64(8<<10); got != want {
		t.Fatalf("pooled arena owns %d bytes, want %d (only the small slab kept)", got, want)
	}
}
