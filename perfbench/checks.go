package main

import (
	"errors"
	"fmt"
	"time"

	"memca/internal/core"
	"memca/internal/figures"
	"memca/internal/monitor"
	"memca/internal/telemetry"
	"memca/internal/telemetry/live"
)

// conservation is a drained experiment's request accounting, read from
// public counters only.
type conservation struct {
	inFlight                           int
	requests, drops, retrans, failures uint64
	closed, untracked                  uint64
	openTraces                         int
}

func conservationOf(x *core.Experiment) conservation {
	g, tr := x.Generator(), x.Tracer()
	return conservation{
		inFlight:   x.Network().InFlight(),
		requests:   g.Requests(),
		drops:      g.Drops(),
		retrans:    g.Retransmissions(),
		failures:   g.Failures(),
		closed:     tr.Closed(),
		untracked:  tr.Untracked(),
		openTraces: tr.OpenTraces(),
	}
}

// checkConservation: after the drain nothing is in flight, every drop was
// either retransmitted or abandoned, and every request of the measured
// window closed exactly one trace.
func checkConservation(c conservation) error {
	var errs []error
	if c.inFlight != 0 || c.openTraces != 0 {
		errs = append(errs, fmt.Errorf("%d requests in flight and %d traces open after drain", c.inFlight, c.openTraces))
	}
	if c.drops != c.retrans+c.failures {
		errs = append(errs, fmt.Errorf("%d drops but %d retransmissions + %d failures", c.drops, c.retrans, c.failures))
	}
	if c.closed+c.untracked != c.requests {
		errs = append(errs, fmt.Errorf("%d requests but %d closed + %d untracked traces", c.requests, c.closed, c.untracked))
	}
	return errors.Join(errs...)
}

// checkAttributions: with no hop delay every trace's queueing, service
// and retransmission wait sum exactly to its response time.
func checkAttributions(recs []telemetry.Attribution) error {
	for i := range recs {
		a := &recs[i]
		if got := a.TotalQueue() + a.TotalService() + a.RetransWait; got != a.RT || a.Other != 0 {
			return fmt.Errorf("trace %d: queue+service+retrans wait = %v, RT = %v (other %v)", a.TraceID, got, a.RT, a.Other)
		}
	}
	return nil
}

// checkAmplified: the attacked client p99 reaches the retransmission
// timeout floor.
func checkAmplified(p99 time.Duration) error {
	if p99 < rtoFloor {
		return fmt.Errorf("attacked client p99 %v below the %v RTO floor", p99, rtoFloor)
	}
	return nil
}

// checkFigure applies a figure's own verdict to its returned result;
// figures without a verdict pass when they return no error.
func checkFigure(result any) error {
	switch r := result.(type) {
	case *figures.Fig2Result:
		if !r.AmplificationOK {
			return errors.New("fig2: per-tier amplification ordering did not hold")
		}
	case *figures.PlannerResult:
		if !r.AllSizedOK || !r.AllSmallerViolate {
			return fmt.Errorf("planner: sized OK %v, witnesses violate %v", r.AllSizedOK, r.AllSmallerViolate)
		}
	case *figures.DetectorComparisonResult:
		for _, g := range []time.Duration{monitor.GranularityUser, monitor.GranularityFine} {
			for _, sc := range []string{figures.ScenarioAttack, figures.ScenarioClean, figures.ScenarioFlashCrowd} {
				n, ok := r.Alarms(sc, "attribution", g)
				if !ok || (n == 0) == (sc == figures.ScenarioAttack) {
					return fmt.Errorf("detectors: attribution detector @%v raised %d alarms on %s", g, n, sc)
				}
			}
		}
	case *figures.AttributionResult:
		if r.AttackedWaitShare < 0.5 || r.BaselineServiceShare <= 0.5 || r.AttackedP99 <= r.BaselineP99 {
			return fmt.Errorf("attribution: attacked wait share %.3f, baseline service share %.3f, p99 %v vs baseline %v",
				r.AttackedWaitShare, r.BaselineServiceShare, r.AttackedP99, r.BaselineP99)
		}
	}
	return nil
}

// checkLiveReport: after the chain drains, every trace closed, no tier
// leaked a span, and the collector kept every event.
func checkLiveReport(r *live.Report) error {
	if r.Open != 0 || r.Orphans != 0 || r.DroppedEvents != 0 {
		return fmt.Errorf("live report: %d open traces, %d orphan spans, %d dropped events", r.Open, r.Orphans, r.DroppedEvents)
	}
	return nil
}

// checkServed: the web tier answered at least every request the client
// saw succeed.
func checkServed(webServed int64, clientOK int) error {
	if webServed < int64(clientOK) {
		return fmt.Errorf("web tier served %d requests, client saw %d succeed", webServed, clientOK)
	}
	return nil
}
