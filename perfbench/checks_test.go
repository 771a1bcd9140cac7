package main

import (
	"strings"
	"testing"
	"time"

	"memca/internal/figures"
	"memca/internal/monitor"
	"memca/internal/telemetry"
	"memca/internal/telemetry/live"
)

// Each check passes a consistent input and rejects a doctored copy.

func TestCheckConservation(t *testing.T) {
	good := conservation{requests: 100, drops: 7, retrans: 6, failures: 1, closed: 98, untracked: 2}
	if err := checkConservation(good); err != nil {
		t.Fatalf("consistent counters rejected: %v", err)
	}
	for name, doctor := range map[string]func(*conservation){
		"in flight":      func(c *conservation) { c.inFlight = 1 },
		"open trace":     func(c *conservation) { c.openTraces = 1 },
		"lost drop":      func(c *conservation) { c.drops++ },
		"unclosed trace": func(c *conservation) { c.closed-- },
	} {
		c := good
		doctor(&c)
		if checkConservation(c) == nil {
			t.Errorf("%s: doctored counters accepted", name)
		}
	}
}

func TestCheckAttributions(t *testing.T) {
	a := telemetry.Attribution{
		TraceID:     1,
		RT:          ms(1300),
		Queue:       []time.Duration{ms(10), ms(20), ms(40)},
		Service:     []time.Duration{ms(5), ms(10), ms(15)},
		RetransWait: ms(1200),
	}
	if err := checkAttributions([]telemetry.Attribution{a}); err != nil {
		t.Fatalf("exact attribution rejected: %v", err)
	}
	short := a
	short.RT += time.Nanosecond
	if checkAttributions([]telemetry.Attribution{a, short}) == nil {
		t.Error("attribution 1ns short of RT accepted")
	}
	other := a
	other.Other = time.Nanosecond
	if checkAttributions([]telemetry.Attribution{other}) == nil {
		t.Error("attribution with a residual accepted")
	}
}

func TestCheckAmplified(t *testing.T) {
	if err := checkAmplified(rtoFloor); err != nil {
		t.Errorf("p99 at the RTO floor rejected: %v", err)
	}
	if checkAmplified(rtoFloor-time.Millisecond) == nil {
		t.Error("p99 below the RTO floor accepted")
	}
}

func TestCheckFigureVerdicts(t *testing.T) {
	detectors := func(attackAlarms, cleanAlarms int) *figures.DetectorComparisonResult {
		r := &figures.DetectorComparisonResult{}
		for _, g := range []time.Duration{monitor.GranularityUser, monitor.GranularityFine} {
			r.Cells = append(r.Cells,
				figures.DetectorCell{Scenario: figures.ScenarioAttack, Detector: "attribution", Granularity: g, Alarms: attackAlarms},
				figures.DetectorCell{Scenario: figures.ScenarioClean, Detector: "attribution", Granularity: g, Alarms: cleanAlarms},
				figures.DetectorCell{Scenario: figures.ScenarioFlashCrowd, Detector: "attribution", Granularity: g},
			)
		}
		return r
	}
	attribution := figures.AttributionResult{
		AttackedP99: ms(1500), BaselineP99: ms(300), AttackedWaitShare: 0.99, BaselineServiceShare: 0.6,
	}
	lowWait := attribution
	lowWait.AttackedWaitShare = 0.4
	serviceBound := attribution
	serviceBound.BaselineServiceShare = 0.5
	for _, tc := range []struct {
		name   string
		result any
		ok     bool
	}{
		{"fig2 ok", &figures.Fig2Result{AmplificationOK: true}, true},
		{"fig2 no amplification", &figures.Fig2Result{}, false},
		{"planner ok", &figures.PlannerResult{AllSizedOK: true, AllSmallerViolate: true}, true},
		{"planner undersized", &figures.PlannerResult{AllSmallerViolate: true}, false},
		{"planner not minimal", &figures.PlannerResult{AllSizedOK: true}, false},
		{"detectors ok", detectors(3, 0), true},
		{"detectors miss the attack", detectors(0, 0), false},
		{"detectors false alarm", detectors(3, 1), false},
		{"detectors missing cells", &figures.DetectorComparisonResult{}, false},
		{"attribution ok", &attribution, true},
		{"attribution tail not wait-bound", &lowWait, false},
		{"attribution clean tail not service-bound", &serviceBound, false},
		{"no verdict", &figures.Fig3Result{}, true},
	} {
		if err := checkFigure(tc.result); (err == nil) != tc.ok {
			t.Errorf("%s: checkFigure = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCheckLive(t *testing.T) {
	if err := checkLiveReport(&live.Report{}); err != nil {
		t.Fatalf("clean report rejected: %v", err)
	}
	for _, r := range []live.Report{{Open: 1}, {Orphans: 1}, {DroppedEvents: 1}} {
		if checkLiveReport(&r) == nil {
			t.Errorf("doctored report %+v accepted", r)
		}
	}
	if err := checkServed(10, 10); err != nil {
		t.Errorf("served == OK rejected: %v", err)
	}
	if checkServed(9, 10) == nil {
		t.Error("web tier serving fewer than the client saw succeed accepted")
	}
}

func TestDeclaredMetrics(t *testing.T) {
	decls := []metricDecl{{"run_s", "s"}, {"setup_s", "s"}}
	got, err := declared(decls, map[string]float64{"run_s": 1.5, "setup_s": 0.2}, true)
	if err != nil || got["run_s"] != (metricValue{1.5, "s"}) {
		t.Fatalf("declared = %v, %v", got, err)
	}
	if _, err := declared(decls, map[string]float64{"run_s": 1}, true); err == nil {
		t.Error("missing end-to-end metric accepted")
	}
	if got, err := declared(decls, map[string]float64{"run_s": 1}, false); err != nil || got["setup_s"].Value != 0 {
		t.Errorf("missing per-layer metric should read 0: %v, %v", got, err)
	}
	if _, err := declared(decls, map[string]float64{"run_s": 1, "setup_s": 1, "typo_s": 1}, true); err == nil || !strings.Contains(err.Error(), "typo_s") {
		t.Errorf("undeclared metric: err = %v", err)
	}
}
