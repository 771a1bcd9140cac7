package live

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"memca/internal/telemetry"
)

func newTestCollector(t *testing.T, events int) *Collector {
	t.Helper()
	c, err := New(Config{Tiers: []string{"web", "app", "db"}, Events: events})
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Tiers: []string{"web"}, Events: 0}); err == nil {
		t.Error("zero event capacity accepted")
	}
	if _, err := New(Config{Tiers: []string{""}, Events: 16}); err == nil {
		t.Error("empty tier name accepted")
	}
	if _, err := New(Config{Events: 16}); err != nil {
		t.Errorf("tierless collector rejected: %v", err)
	}
}

// TestAssembleAttribution drives one synthetic trace through the full
// 3-tier vocabulary with hand-placed timestamps and checks the assembled
// attribution decomposes the response time exactly: per-tier queue and
// service, retransmission wait anchored at the drop, and the residual.
func TestAssembleAttribution(t *testing.T) {
	c := newTestCollector(t, 1<<10)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	id := c.NextTraceID()

	// Attempt 0: refused at the db tier.
	c.RecordAt(ms(0), id, KindSubmit, ClientTier, 0, 0)
	c.RecordAt(ms(1), id, KindTierRequest, 0, 0, 0)
	c.RecordAt(ms(2), id, KindServiceStart, 0, 0, 0)
	c.RecordAt(ms(4), id, KindServiceEnd, 0, 0, 0)
	c.RecordAt(ms(5), id, KindTierRequest, 2, 0, 0)
	c.RecordAt(ms(5), id, KindDrop, 2, 0, 0)
	c.RecordAt(ms(7), id, KindRetransmitScheduled, ClientTier, 1, ms(25))
	// Attempt 1: served end to end.
	c.RecordAt(ms(25), id, KindSubmit, ClientTier, 1, 0)
	c.RecordAt(ms(26), id, KindTierRequest, 0, 1, 0)
	c.RecordAt(ms(28), id, KindServiceStart, 0, 1, 0)
	c.RecordAt(ms(30), id, KindServiceEnd, 0, 1, 0)
	c.RecordAt(ms(31), id, KindTierRequest, 2, 1, 0)
	c.RecordAt(ms(34), id, KindServiceStart, 2, 1, 0)
	c.RecordAt(ms(40), id, KindServiceEnd, 2, 1, 0)
	c.RecordAt(ms(41), id, KindTierRespond, 2, 1, 0)
	c.RecordAt(ms(42), id, KindComplete, ClientTier, 1, 0)

	rep := c.Report()
	if rep.Open != 0 || rep.Orphans != 0 || rep.DroppedEvents != 0 {
		t.Fatalf("open=%d orphans=%d dropped=%d, want all zero", rep.Open, rep.Orphans, rep.DroppedEvents)
	}
	if len(rep.Attributions) != 1 {
		t.Fatalf("got %d attributions, want 1", len(rep.Attributions))
	}
	a := rep.Attributions[0]
	if a.TraceID != id || a.Attempts != 2 || a.Drops != 1 || a.Abandoned {
		t.Errorf("identity: %+v", a)
	}
	if a.RT != ms(42) {
		t.Errorf("RT = %v, want 42ms", a.RT)
	}
	// Web queue: (2-1) + (28-26) = 3ms; web service: (4-2) + (30-28) = 4ms.
	if a.Queue[0] != ms(3) || a.Service[0] != ms(4) {
		t.Errorf("web queue/service = %v/%v, want 3ms/4ms", a.Queue[0], a.Service[0])
	}
	// Db queue: 34-31 (attempt 0's request cleared by the drop); service 6ms.
	if a.Queue[2] != ms(3) || a.Service[2] != ms(6) {
		t.Errorf("db queue/service = %v/%v, want 3ms/6ms", a.Queue[2], a.Service[2])
	}
	// Retransmission wait anchors at the drop (5ms), not the client's
	// scheduling instant: 25-5 = 20ms.
	if a.RetransWait != ms(20) {
		t.Errorf("retransWait = %v, want 20ms", a.RetransWait)
	}
	want := a.RT - (a.TotalQueue() + a.TotalService() + a.RetransWait)
	if a.Other != want {
		t.Errorf("Other = %v, want %v (exact decomposition)", a.Other, want)
	}
}

// TestAssembleAbandonAndOpen checks that an abandoned trace closes with
// its flag set, an unterminated trace is counted open, and a transport
// failure without a tier drop anchors the retransmission wait at the
// client's scheduling event.
func TestAssembleAbandonAndOpen(t *testing.T) {
	c := newTestCollector(t, 1<<10)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	// Abandoned after a web-tier reject.
	a1 := c.NextTraceID()
	c.RecordAt(ms(0), a1, KindSubmit, ClientTier, 0, 0)
	c.RecordAt(ms(1), a1, KindTierRequest, 0, 0, 0)
	c.RecordAt(ms(1), a1, KindDrop, 0, 0, 0)
	c.RecordAt(ms(3), a1, KindAbandoned, ClientTier, 0, 0)

	// Transport failure (no drop recorded anywhere), then success.
	a2 := c.NextTraceID()
	c.RecordAt(ms(0), a2, KindSubmit, ClientTier, 0, 0)
	c.RecordAt(ms(2), a2, KindRetransmitScheduled, ClientTier, 1, ms(10))
	c.RecordAt(ms(10), a2, KindSubmit, ClientTier, 1, 0)
	c.RecordAt(ms(12), a2, KindComplete, ClientTier, 1, 0)

	// Still in flight at snapshot time.
	a3 := c.NextTraceID()
	c.RecordAt(ms(5), a3, KindSubmit, ClientTier, 0, 0)
	c.RecordAt(ms(6), a3, KindTierRequest, 0, 0, 0)

	rep := c.Report()
	if rep.Open != 1 {
		t.Errorf("open = %d, want 1", rep.Open)
	}
	if len(rep.Attributions) != 2 {
		t.Fatalf("attributions = %d, want 2", len(rep.Attributions))
	}
	byID := map[uint64]telemetry.Attribution{}
	for _, a := range rep.Attributions {
		byID[a.TraceID] = a
	}
	if got := byID[a1]; !got.Abandoned || got.Drops != 1 || got.RT != ms(3) {
		t.Errorf("abandoned trace: %+v", got)
	}
	if got := byID[a2]; got.RetransWait != ms(8) {
		t.Errorf("transport-failure retransWait = %v, want 8ms (anchored at scheduling)", got.RetransWait)
	}
}

// TestOrphanDetection: a service-start without service-end inside a closed
// trace must be reported, it is an instrumentation leak.
func TestOrphanDetection(t *testing.T) {
	c := newTestCollector(t, 64)
	id := c.NextTraceID()
	c.RecordAt(0, id, KindSubmit, ClientTier, 0, 0)
	c.RecordAt(time.Millisecond, id, KindServiceStart, 1, 0, 0)
	c.RecordAt(2*time.Millisecond, id, KindComplete, ClientTier, 0, 0)
	if rep := c.Report(); rep.Orphans != 1 {
		t.Errorf("orphans = %d, want 1", rep.Orphans)
	}
}

func TestEventCapacityDropsNotOverwrites(t *testing.T) {
	c := newTestCollector(t, 4)
	id := c.NextTraceID()
	for i := 0; i < 10; i++ {
		c.RecordAt(time.Duration(i), id, KindSubmit, ClientTier, 0, 0)
	}
	if got := c.EventsDropped(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
	if got := len(c.Events()); got != 4 {
		t.Errorf("kept = %d, want 4", got)
	}
	// The first four events survive untouched — claim-once, no laps.
	for i, e := range c.Events() {
		if e.T != time.Duration(i) {
			t.Errorf("event %d at %v, want %v", i, e.T, time.Duration(i))
		}
	}
}

// TestConcurrentRecording hammers the collector from many goroutines under
// the race detector and checks nothing tears: every published event is
// intact and trace IDs are unique.
func TestConcurrentRecording(t *testing.T) {
	c := newTestCollector(t, 1<<14)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := c.NextTraceID()
				c.Record(id, KindSubmit, ClientTier, 0, 0)
				c.Record(id, KindTierRequest, 0, 0, 0)
				c.Record(id, KindServiceStart, 0, 0, 0)
				c.Record(id, KindServiceEnd, 0, 0, 0)
				c.Record(id, KindComplete, ClientTier, 0, 0)
			}
		}()
	}
	wg.Wait()
	rep := c.Report()
	if want := workers * perWorker; len(rep.Attributions) != want {
		t.Errorf("closed traces = %d, want %d", len(rep.Attributions), want)
	}
	if rep.Open != 0 || rep.Orphans != 0 || rep.DroppedEvents != 0 {
		t.Errorf("open=%d orphans=%d dropped=%d", rep.Open, rep.Orphans, rep.DroppedEvents)
	}
	seen := map[uint64]bool{}
	for _, a := range rep.Attributions {
		if seen[a.TraceID] {
			t.Fatalf("trace ID %d assembled twice", a.TraceID)
		}
		seen[a.TraceID] = true
	}
}

// TestLiveEventsFeedSharedExporters: the assembled report must flow
// through the simulator's exporters unchanged.
func TestLiveEventsFeedSharedExporters(t *testing.T) {
	c := newTestCollector(t, 1<<10)
	id := c.NextTraceID()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	c.RecordAt(ms(0), id, KindSubmit, ClientTier, 0, 0)
	c.RecordAt(ms(1), id, KindTierRequest, 0, 0, 0)
	c.RecordAt(ms(2), id, KindServiceStart, 0, 0, 0)
	c.RecordAt(ms(3), id, KindServiceEnd, 0, 0, 0)
	c.RecordAt(ms(4), id, KindComplete, ClientTier, 0, 0)
	rep := c.Report()

	dir := t.TempDir()
	if err := telemetry.WriteChromeTrace(filepath.Join(dir, "t.json"), rep.TierNames, rep.Events); err != nil {
		t.Errorf("WriteChromeTrace over live events: %v", err)
	}
	spec := telemetry.OTLPSpec{ServicePrefix: "live", EpochNanos: c.Epoch().UnixNano()}
	if err := telemetry.WriteOTLP(filepath.Join(dir, "o.json"), spec, rep.TierNames, rep.Events); err != nil {
		t.Errorf("WriteOTLP over live events: %v", err)
	}
	if err := telemetry.WriteAttributionCSV(filepath.Join(dir, "a.csv"), rep.TierNames, rep.Attributions); err != nil {
		t.Errorf("WriteAttributionCSV over live attributions: %v", err)
	}
	tls, err := rep.Timelines(50*time.Millisecond, time.Second)
	if err != nil {
		t.Fatalf("Timelines: %v", err)
	}
	if len(tls) != 2 || tls[0].Points()[0].Count != 1 {
		t.Errorf("timeline booking failed: %+v", tls)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	cases := []struct {
		id      uint64
		attempt int
	}{{1, 0}, {42, 3}, {1<<64 - 1, 65535}}
	for _, tc := range cases {
		id, at, ok := ParseTraceHeader(FormatTraceHeader(tc.id, tc.attempt))
		if !ok || id != tc.id || at != tc.attempt {
			t.Errorf("round trip (%d,%d) -> (%d,%d,%v)", tc.id, tc.attempt, id, at, ok)
		}
	}
	for _, bad := range []string{"", ".", "5.", ".5", "abc", "5.x", "0.1", "5", "99999999999999999999999.1", "7.70000"} {
		if _, _, ok := ParseTraceHeader(bad); ok {
			t.Errorf("malformed header %q accepted", bad)
		}
	}
}

// TestRecordZeroAllocs pins the hot-path contract: minting a trace ID and
// recording a span event into the pre-sized log perform no heap
// allocations, and neither does parsing trace context out of a header
// value.
func TestRecordZeroAllocs(t *testing.T) {
	c := newTestCollector(t, 1<<20)
	if allocs := testing.AllocsPerRun(10000, func() {
		c.Record(c.NextTraceID(), KindTierRequest, 0, 0, 0)
	}); allocs != 0 {
		t.Errorf("NextTraceID+Record allocates %v objects/op, want 0", allocs)
	}
	h := FormatTraceHeader(123456, 2)
	if allocs := testing.AllocsPerRun(10000, func() {
		if _, _, ok := ParseTraceHeader(h); !ok {
			t.Fatal("parse failed")
		}
	}); allocs != 0 {
		t.Errorf("ParseTraceHeader allocates %v objects/op, want 0", allocs)
	}
}

func BenchmarkRecord(b *testing.B) {
	c, err := New(Config{Tiers: []string{"web", "app", "db"}, Events: 1 << 24})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Record(uint64(i)+1, KindTierRequest, 0, 0, 0)
	}
}
