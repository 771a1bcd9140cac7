package live

// TraceHeader is the HTTP header carrying trace context through the live
// tier chain: "<traceID>.<attempt>", both decimal. A trace ID is minted by
// the instrumented client and forwarded unchanged on every hop, so one
// logical request keeps one ID across tiers and retransmissions; requests
// arriving without the header are served but not traced.
const TraceHeader = "X-Memca-Trace"

// FormatTraceHeader renders trace context into the wire form. It allocates
// the returned string and runs once per traced outbound hop; only
// ParseTraceHeader, which every tier runs on every inbound request, is held
// to zero allocations.
func FormatTraceHeader(traceID uint64, attempt int) string {
	buf := make([]byte, 0, 24)
	buf = appendUint(buf, traceID)
	buf = append(buf, '.')
	buf = appendUint(buf, uint64(attempt))
	return string(buf)
}

// ParseTraceHeader decodes the wire form. ok is false (and both values
// zero) for an empty or malformed header — the tier then serves the
// request untraced. The parse is allocation-free so an instrumented
// tier's hot path stays clean.
func ParseTraceHeader(v string) (traceID uint64, attempt int, ok bool) {
	if v == "" {
		return 0, 0, false
	}
	dot := -1
	for i := 0; i < len(v); i++ {
		if v[i] == '.' {
			dot = i
			break
		}
	}
	if dot <= 0 || dot == len(v)-1 {
		return 0, 0, false
	}
	id, ok := parseUint(v[:dot])
	if !ok || id == 0 {
		return 0, 0, false
	}
	at, ok := parseUint(v[dot+1:])
	if !ok || at > 1<<16-1 {
		return 0, 0, false
	}
	return id, int(at), true
}

func appendUint(buf []byte, x uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + x%10)
		x /= 10
		if x == 0 {
			break
		}
	}
	return append(buf, tmp[i:]...)
}

func parseUint(s string) (uint64, bool) {
	if s == "" || len(s) > 20 {
		return 0, false
	}
	var x uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if x > (1<<64-1-d)/10 {
			return 0, false
		}
		x = x*10 + d
	}
	return x, true
}
