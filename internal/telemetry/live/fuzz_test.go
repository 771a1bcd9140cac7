package live

import "testing"

// FuzzParseTraceHeader throws arbitrary header values at the trace-context
// codec, which parses bytes straight off the wire, and checks its contract:
// no panic; a rejected value yields (0, 0); an accepted one carries a
// non-zero ID and an attempt in [0, 65535] and survives a re-format; and
// every ID > 0 with a 16-bit attempt round-trips through FormatTraceHeader,
// while ID 0 (never minted) is rejected.
func FuzzParseTraceHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string, id uint64, attempt uint16) {
		gotID, gotAt, ok := ParseTraceHeader(v)
		switch {
		case !ok && (gotID != 0 || gotAt != 0):
			t.Fatalf("ParseTraceHeader(%q) rejected but returned (%d, %d)", v, gotID, gotAt)
		case ok && (gotID == 0 || gotAt < 0 || gotAt > 1<<16-1):
			t.Fatalf("ParseTraceHeader(%q) = (%d, %d, true), outside id > 0, attempt in [0, 65535]", v, gotID, gotAt)
		case ok:
			if id2, at2, ok2 := ParseTraceHeader(FormatTraceHeader(gotID, gotAt)); !ok2 || id2 != gotID || at2 != gotAt {
				t.Fatalf("re-format of %q = (%d, %d) parsed back as (%d, %d, %v)", v, gotID, gotAt, id2, at2, ok2)
			}
		}

		h := FormatTraceHeader(id, int(attempt))
		gotID, gotAt, ok = ParseTraceHeader(h)
		if id == 0 {
			if ok {
				t.Fatalf("ParseTraceHeader(%q) accepted trace ID 0", h)
			}
			return
		}
		if !ok || gotID != id || gotAt != int(attempt) {
			t.Fatalf("round trip (%d, %d) via %q -> (%d, %d, %v)", id, attempt, h, gotID, gotAt, ok)
		}
	})
}
