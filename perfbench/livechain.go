package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memca/internal/telemetry/live"
	"memca/internal/victimd"
)

const (
	// liveWarmup logical requests open the connections and warm the
	// tiers before a session's first timed batch.
	liveWarmup = 100
	// liveBatch logical requests make one measured round: enough for the
	// round's p99 to have ten requests beyond it.
	liveBatch = 1000
	// liveBatches rounds make one session, between a fresh start of the
	// chain and its teardown.
	liveBatches = 2
	// liveMaxAttempts lets the client retransmit a shed request twice.
	liveMaxAttempts = 3
	// liveEventsPerRequest sizes the collector: 14 events per attempt
	// (client submit and complete, four per tier), with room for
	// retransmissions.
	liveEventsPerRequest = 48
)

// tierCounters is one tier's /debug/counters totals.
type tierCounters struct {
	served, rejected, queueWaitNs, serviceNs int64
}

func (c tierCounters) sub(o tierCounters) tierCounters {
	return tierCounters{c.served - o.served, c.rejected - o.rejected, c.queueWaitNs - o.queueWaitNs, c.serviceNs - o.serviceNs}
}

func (c tierCounters) add(o tierCounters) tierCounters {
	return tierCounters{c.served + o.served, c.rejected + o.rejected, c.queueWaitNs + o.queueWaitNs, c.serviceNs + o.serviceNs}
}

// liveTotals accumulates what the sessions of a live-chain run measured.
type liveTotals struct {
	setup, rounds, rtMs []float64
	peaks               []float64
	cpuS                []float64
	roundP90, roundP99  []float64
	byTrace             roundTimes
	getUs, reportS      []float64
	events              []float64
	attempts, dropped   int
	tiers               [3]tierCounters
	counters            runtimeCounters
	round               int
}

func runLiveChain(e *env) (*outcome, error) {
	sys := victimd.DefaultSystem()
	res := &outcome{config: fmt.Sprintf("live-chain %+v conns=%d warmup=%d batch=%d batches=%d attempts=%d",
		sys, e.nproc, liveWarmup, liveBatch, liveBatches, liveMaxAttempts)}
	t := &liveTotals{}
	heap := startHeapPeak()
	defer heap.stop()
	start := time.Now()
	for e.more(start, len(t.rounds), 1) {
		if err := liveSession(e, res, t, heap); err != nil {
			return nil, err
		}
	}

	requests := float64(len(t.rtMs))
	if !e.trace {
		tail, err := tailPercentile(t.rtMs, tailPct)
		if err != nil {
			return nil, err
		}
		res.metrics = map[string]float64{
			"setup_s":      median(t.setup),
			"run_s":        median(t.rounds),
			"heap_peak_mb": median(t.peaks),
			"ok_share":     1 - ratio(float64(res.failed), float64(res.attempted)),
			"ops_per_s":    liveBatch / median(t.rounds),
			"op_p50_ms":    median(t.rtMs),
			"op_tail_ms":   tail,
		}
		return res, nil
	}
	m := map[string]float64{
		"live.client_get_us":         median(t.getUs),
		"live.p90_ms":                median(t.roundP90),
		"live.p99_ms":                median(t.roundP99),
		"live.attempts_per_request":  ratio(float64(t.attempts), requests),
		"live.events":                median(t.events),
		"live.events_dropped":        float64(t.dropped),
		"live.report_s":              median(t.reportS),
		"runtime.allocs_per_request": ratio(float64(t.counters.allocs), requests),
		"bench.round_wall_s":         median(t.rounds),
		"bench.round_cpu_s":          median(t.cpuS),
		"bench.setup_wall_s":         median(t.setup),
	}
	tierSum := 0.0
	for i, name := range victimd.TierNames() {
		c := t.tiers[i]
		wait := ratio(float64(c.queueWaitNs), float64(c.served)) / 1e3
		svc := ratio(float64(c.serviceNs), float64(c.served)) / 1e3
		tierSum += wait + svc
		m["victimd."+name+".queue_wait_us"] = wait
		m["victimd."+name+".service_us"] = svc
		m["victimd."+name+".served"] = float64(c.served)
		m["victimd."+name+".rejected"] = float64(c.rejected)
	}
	m["live.overhead_us"] = sum(t.rtMs)/requests*1e3 - tierSum
	res.metrics = m
	addSpanMetrics(m, e.spans.snapshot(), t.byTrace)
	return res, nil
}

// liveSession starts a fresh chain with its own collector, warms it up,
// runs liveBatches measured rounds, checks the collector's report and the
// tier counters, and tears the chain down.
func liveSession(e *env, res *outcome, t *liveTotals, heap *heapPeak) error {
	// Start from a collected heap, so one session's garbage does not
	// count against the next one's peak or pace its collections.
	runtime.GC()
	heap.take()
	requests := liveWarmup + liveBatch*liveBatches
	col, err := live.New(live.Config{Tiers: victimd.TierNames(), Events: liveEventsPerRequest * requests})
	if err != nil {
		return err
	}
	cfg := victimd.DefaultSystem()
	cfg.Trace = col
	transport := &http.Transport{MaxIdleConnsPerHost: e.nproc, MaxConnsPerHost: e.nproc}
	defer transport.CloseIdleConnections()
	client, err := live.NewClient(live.ClientConfig{
		Collector:   col,
		HTTP:        &http.Client{Transport: transport, Timeout: 5 * time.Second},
		MaxAttempts: liveMaxAttempts,
	})
	if err != nil {
		return err
	}

	// Session-level calls are traced in every session of a layer-span run;
	// only rounds alternate, for the overhead comparison.
	rec := e.spans
	var sys *victimd.System
	clientOK := 0
	setup, err := rec.timed("bench", "setup", noSpan, int64(t.round), func(parent spanID) error {
		if _, err := rec.timed("victimd", "victimd.StartSystem", parent, 0, func(spanID) error {
			var err error
			sys, err = victimd.StartSystem(cfg)
			return err
		}); err != nil {
			return err
		}
		_, err := rec.timed("bench", "warmup", parent, 0, func(id spanID) error {
			for _, r := range closedLoop(client, sys.Web.URL()+"/", liveWarmup, e.nproc, rec, id, -1) {
				res.attempted++
				if r.OK {
					clientOK++
				} else {
					res.fail("warm-up request %d: status %d, %v", r.TraceID, r.Status, r.Err)
				}
			}
			return nil
		})
		return err
	})
	if sys != nil {
		defer sys.Close()
	}
	if err != nil {
		return err
	}
	t.setup = append(t.setup, setup.Seconds())

	before, err := readTierCounters(rec, sys)
	if err != nil {
		return err
	}
	for b := 0; b < liveBatches; b++ {
		rec := e.recFor(t.round)
		var results []timedResult
		c0 := readCounters()
		d, _ := rec.timed("bench", "round", noSpan, int64(t.round), func(id spanID) error {
			results = closedLoop(client, sys.Web.URL()+"/", liveBatch, e.nproc, rec, id, t.round)
			return nil
		})
		used := readCounters().sub(c0)
		t.counters = t.counters.add(used)
		t.cpuS = append(t.cpuS, used.cpuSec)
		t.rounds = append(t.rounds, d.Seconds())
		t.byTrace.add(rec, d)
		rts := make([]float64, len(results))
		for i, r := range results {
			rts[i] = float64(r.RT) / 1e6
			res.attempted++
			t.attempts += r.Attempts
			t.getUs = append(t.getUs, float64(r.took)/1e3)
			if r.OK {
				clientOK++
			} else {
				res.fail("request %d: status %d after %d attempts, %v", r.TraceID, r.Status, r.Attempts, r.Err)
			}
		}
		// The round's own p90 and p99, so one disturbed round does not
		// set the run's figure.
		p90, err := tailPercentile(rts, 90)
		if err != nil {
			return err
		}
		p99, err := tailPercentile(rts, 99)
		if err != nil {
			return err
		}
		t.rtMs = append(t.rtMs, rts...)
		t.roundP90 = append(t.roundP90, p90)
		t.roundP99 = append(t.roundP99, p99)
		t.round++
	}
	after, err := readTierCounters(rec, sys)
	if err != nil {
		return err
	}
	for i := range t.tiers {
		t.tiers[i] = t.tiers[i].add(after[i].sub(before[i]))
	}

	var rep live.Report
	d, _ := rec.timed("live", "live.Collector.Report", noSpan, 0, func(spanID) error {
		rep = col.Report()
		return nil
	})
	t.reportS = append(t.reportS, d.Seconds())
	t.events = append(t.events, float64(len(rep.Events)))
	t.dropped += int(rep.DroppedEvents)
	t.peaks = append(t.peaks, heap.take())
	res.check(checkLiveReport(&rep))
	res.check(checkServed(sys.Web.Served(), clientOK))
	return nil
}

// timedResult is a client result with the wall time of its Get call.
type timedResult struct {
	live.Result
	took time.Duration
}

// closedLoop sends n logical requests over conns connections, each
// sending its next request as soon as the previous one returns, and
// returns the results in send order. round < 0 marks warm-up requests.
func closedLoop(c *live.Client, url string, n, conns int, rec *spanRecorder, parent spanID, round int) []timedResult {
	out := make([]timedResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				id := rec.start("live", "live.Client.Get", parent, int64(round*liveBatch+i))
				t0 := time.Now()
				r := c.Get(context.Background(), url)
				out[i] = timedResult{r, time.Since(t0)}
				rec.end(id)
			}
		}()
	}
	wg.Wait()
	return out
}

// readTierCounters reads every tier's /debug/counters page.
func readTierCounters(rec *spanRecorder, sys *victimd.System) ([3]tierCounters, error) {
	var out [3]tierCounters
	for i, tier := range []*victimd.Tier{sys.Web, sys.App, sys.DB} {
		_, err := rec.timed("victimd", "victimd.debug.counters", noSpan, 0, func(spanID) error {
			var err error
			out[i], err = fetchCounters(tier.URL() + "/debug/counters")
			return err
		})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func fetchCounters(url string) (tierCounters, error) {
	var c tierCounters
	resp, err := http.Get(url)
	if err != nil {
		return c, fmt.Errorf("reading counters: %w", err)
	}
	defer resp.Body.Close()
	fields := map[string]*int64{
		"victimd.served":              &c.served,
		"victimd.rejected":            &c.rejected,
		"victimd.queue_wait_ns_total": &c.queueWaitNs,
		"victimd.service_ns_total":    &c.serviceNs,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if dst := fields[k]; ok && dst != nil {
			if *dst, err = strconv.ParseInt(v, 10, 64); err != nil {
				return c, fmt.Errorf("counter %s: %w", k, err)
			}
			delete(fields, k)
		}
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("reading counters: %w", err)
	}
	if len(fields) > 0 {
		return c, fmt.Errorf("counters page %s lacks %d counters", url, len(fields))
	}
	return c, nil
}
