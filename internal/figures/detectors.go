package figures

import (
	"fmt"
	"strconv"
	"time"

	"memca/internal/core"
	"memca/internal/monitor"
	"memca/internal/stats"
	"memca/internal/sweep"
	"memca/internal/telemetry"
	"memca/internal/trace"
)

// Detector-comparison scenario labels.
const (
	ScenarioAttack     = "attack"
	ScenarioClean      = "clean"
	ScenarioFlashCrowd = "flash-crowd"
)

// detectorMinCount is the eligibility floor for attribution windows: a
// window with fewer closed traces has a share one retransmitted straggler
// away from 1.0, so both the tuner and the detector skip it.
const detectorMinCount = 8

// DetectorCell is one (scenario, detector, granularity) cell of the grid.
type DetectorCell struct {
	Scenario    string
	Detector    string
	Granularity time.Duration
	Alarms      int
}

// DetectorTuning records the auto-tuned CPU-signal detectors for one
// monitoring granularity.
type DetectorTuning struct {
	Granularity time.Duration
	CPU         monitor.TunedCPUDetectors
}

// DetectorComparisonResult captures how the state-of-the-art interference
// detectors the paper cites (threshold, EWMA-anomaly, CUSUM change
// detection) and the attribution detector built on the tracer's feature
// stream fare across three scenarios: the MemCA attack, a clean baseline,
// and a benign flash crowd. It is the quantitative form of the Section V-B
// claim that the attack "escapes the state-of-the-art detection
// mechanisms" — and of its converse: the resource actually amplifying
// latency (retransmission wait) separates the attack from organic load.
type DetectorComparisonResult struct {
	Cells []DetectorCell
	// Tuning holds the auto-tuned CPU detectors per granularity,
	// calibrated on a seed-derived clean replication (most sensitive
	// settings that stay silent on it).
	Tuning []DetectorTuning
	// Attribution is the tuned feature detector; its threshold comes from
	// the ROC sweep over seed-derived labeled replications.
	Attribution monitor.AttributionDetector
	// ROC is the full threshold sweep behind the attribution tuning.
	ROC []monitor.ROCPoint
}

// Alarms returns the alarm count of one grid cell.
func (r *DetectorComparisonResult) Alarms(scenario, detector string, g time.Duration) (int, bool) {
	for _, c := range r.Cells {
		if c.Scenario == scenario && c.Detector == detector && c.Granularity == g {
			return c.Alarms, true
		}
	}
	return 0, false
}

// detectorScenarios enumerates the grid's three scenarios.
var detectorScenarios = []struct {
	name   string
	attack bool
	flash  bool
}{
	{ScenarioAttack, true, false},
	{ScenarioClean, false, false},
	{ScenarioFlashCrowd, false, true},
}

// detectorGranularities are the grid's monitoring granularities.
var detectorGranularities = []time.Duration{monitor.GranularityUser, monitor.GranularityFine}

// detectorRecord is one scenario run's evidence, one entry per
// detectorGranularities element: the victim-tier CPU signal the sampled
// detectors see, and the feature series the attribution detector reads.
type detectorRecord struct {
	Buckets  [][]stats.Bucket
	Features []featureCopy
}

// runDetectorScenario runs one scenario with feature tracing enabled. The
// flash crowd raises the closed-loop population by 50% over the middle
// half of the run: enough to lift the 1 s CPU signal well above the clean
// band, while the queues (not drop cascades) absorb the surge — the benign
// overload a CPU detector cannot tell from an attack.
func runDetectorScenario(opts Options, a *stats.Arena, seed int64, attack, flash bool) (detectorRecord, error) {
	var rec detectorRecord
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = opts.duration(2 * time.Minute)
	cfg.Arena = a
	if !attack {
		cfg.Attack = nil
	}
	cfg.Trace = featureSpec(monitor.GranularityFine, monitor.GranularityUser)

	x, err := core.NewExperiment(cfg)
	if err != nil {
		return rec, err
	}
	if flash {
		surgeStart := cfg.Warmup + cfg.Duration/4
		surgeEnd := cfg.Warmup + 3*cfg.Duration/4
		crowd := cfg.Clients + cfg.Clients/2
		engine := x.Engine()
		engine.At(surgeStart, func() { x.Generator().SetPopulation(crowd, 5*time.Second) })
		engine.At(surgeEnd, func() { x.Generator().SetPopulation(cfg.Clients, 0) })
	}
	if _, err := x.Run(); err != nil {
		return rec, err
	}
	source, err := victimCPU(x, cfg.Warmup)
	if err != nil {
		return rec, err
	}
	for _, g := range detectorGranularities {
		sampler, err := monitor.NewSampler("cpu", g, source)
		if err != nil {
			return rec, err
		}
		buckets, err := sampler.Collect(cfg.Duration)
		if err != nil {
			return rec, err
		}
		rec.Buckets = append(rec.Buckets, buckets)
		rec.Features = append(rec.Features, copyFeatures(x.Tracer().FeaturesAt(g)))
	}
	return rec, nil
}

func init() { register("detectors", newDetectorsJob) }

// newDetectorsJob prepares the detector grid. Runs 0-2 are the tuning
// replications (seed-derived), runs 3-5 the evaluation runs, both in
// detectorScenarios order.
func newDetectorsJob(opts Options) (*job[detectorRecord], error) {
	k := len(detectorScenarios)
	run := func(a *stats.Arena, i int) (detectorRecord, error) {
		scen := detectorScenarios[i%k]
		seed := opts.Seed
		label := "eval"
		if i < k {
			seed = sweep.DeriveSeed(opts.Seed, 100+i)
			label = "tuning"
		}
		rec, err := runDetectorScenario(opts, a, seed, scen.attack, scen.flash)
		if err != nil {
			return rec, fmt.Errorf("figures: detector comparison %s %s run: %w", scen.name, label, err)
		}
		return rec, nil
	}
	return &job[detectorRecord]{n: 2 * k, run: run, finalize: func(records []detectorRecord) (any, string, error) {
		res, err := compareDetectors(opts, records[:k], records[k:])
		if err != nil {
			return nil, "", err
		}
		return res, fmt.Sprintf("detectors: %d cells, attribution threshold %.4f", len(res.Cells), res.Attribution.ShareThreshold), nil
	}}, nil
}

// DetectorComparison evaluates the detector grid: three scenarios (attack,
// clean, flash crowd) × {tuned CPU detectors, attribution detector} ×
// {1 s, 50 ms}. Every run is replicated at a seed-derived tuning seed and
// the evaluation seed; the tuners see only the tuning replications, so the
// evaluated alarms are out-of-sample.
func DetectorComparison(opts Options) (*DetectorComparisonResult, error) {
	return runFigure[*DetectorComparisonResult](opts, newDetectorsJob)
}

// compareDetectors tunes the detectors on the tuning replications,
// evaluates them on the evaluation runs, and writes the grid and ROC CSVs.
func compareDetectors(opts Options, tune, eval []detectorRecord) (*DetectorComparisonResult, error) {
	tuneAttack, tuneClean, tuneFlash := tune[0], tune[1], tune[2]
	res := &DetectorComparisonResult{}

	// Calibrate the CPU detectors per granularity on the clean tuning
	// replication's signal.
	for gi, g := range detectorGranularities {
		tuned, err := monitor.TuneCPUDetectors(tuneClean.Buckets[gi])
		if err != nil {
			return nil, fmt.Errorf("figures: tuning CPU detectors at %v: %w", g, err)
		}
		res.Tuning = append(res.Tuning, DetectorTuning{Granularity: g, CPU: tuned})
	}

	// ROC-sweep the attribution threshold over the labeled tuning
	// replications, pooling both granularities so one threshold serves
	// the whole grid (the share is scale-free).
	var pos, neg []*telemetry.FeatureSeries
	for gi := range detectorGranularities {
		pos = append(pos, tuneAttack.Features[gi].series())
		neg = append(neg, tuneClean.Features[gi].series(), tuneFlash.Features[gi].series())
	}
	attribution, roc, err := monitor.TuneAttribution(pos, neg, detectorMinCount)
	if err != nil {
		return nil, fmt.Errorf("figures: tuning attribution detector: %w", err)
	}
	res.Attribution = attribution
	res.ROC = roc

	// Evaluate the grid on the out-of-sample runs.
	for si, scen := range detectorScenarios {
		for gi, g := range detectorGranularities {
			detectors := append(res.Tuning[gi].CPU.Detectors(),
				monitor.BridgeFeatures(attribution, eval[si].Features[gi].series()))
			for _, det := range detectors {
				res.Cells = append(res.Cells, DetectorCell{
					Scenario:    scen.name,
					Detector:    det.Name(),
					Granularity: g,
					Alarms:      len(det.Detect(eval[si].Buckets[gi])),
				})
			}
		}
	}

	if path := opts.path("detector_comparison.csv"); path != "" {
		rows := make([][]string, 0, len(res.Cells))
		for _, c := range res.Cells {
			rows = append(rows, []string{
				c.Scenario,
				c.Detector,
				c.Granularity.String(),
				strconv.Itoa(c.Alarms),
			})
		}
		if err := trace.WriteCSV(path, []string{"scenario", "detector", "granularity", "alarms"}, rows); err != nil {
			return nil, err
		}
	}
	if path := opts.path("detector_roc.csv"); path != "" {
		rows := make([][]string, 0, len(res.ROC))
		for _, p := range res.ROC {
			rows = append(rows, []string{
				strconv.FormatFloat(p.Threshold, 'f', 6, 64),
				strconv.Itoa(p.TP),
				strconv.Itoa(p.FP),
				strconv.FormatFloat(p.TPR, 'f', 4, 64),
				strconv.FormatFloat(p.FPR, 'f', 4, 64),
			})
		}
		if err := trace.WriteCSV(path, []string{"threshold", "tp", "fp", "tpr", "fpr"}, rows); err != nil {
			return nil, err
		}
	}
	return res, nil
}
