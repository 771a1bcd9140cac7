package figures

import (
	"fmt"
	"strconv"
	"time"

	"memca/internal/core"
	"memca/internal/defense"
	"memca/internal/memmodel"
	"memca/internal/monitor"
	"memca/internal/stats"
	"memca/internal/sweep"
	"memca/internal/telemetry"
	"memca/internal/trace"
)

// DefensePoint is one (attack, defense) cell of the countermeasure matrix.
type DefensePoint struct {
	Attack  string
	Defense string
	// ClientP95 is the damage remaining under the defense.
	ClientP95 time.Duration
	// DegradationD is the degradation index the attack achieved on the
	// victim tier during bursts (1 = no degradation at all).
	DegradationD float64
	// Mitigated reports the damage goal was NOT met (p95 back under 1s).
	Mitigated bool
}

// DefenseResult captures the countermeasure evaluation: isolation
// primitives crossed with attack kinds, plus the fine-grained detector's
// verdict and its overhead cost.
type DefenseResult struct {
	Matrix []DefensePoint
	// DetectorEpisodes is how many millibottlenecks the 50 ms detector
	// found under the undefended lock attack.
	DetectorEpisodes int
	// DetectorVerdict is the ON-OFF classifier's conclusion.
	DetectorVerdict defense.Classification
	// DetectorOverhead is the monitoring cost (fraction of a core) —
	// the economic reason clouds don't run this by default.
	DetectorOverhead float64
	// CoarseDetectorEpisodes is what the same detector finds at 1 s
	// granularity: nothing, which is the paper's stealthiness argument.
	CoarseDetectorEpisodes int
	// Attribution is the feature detector tuned on a seed-derived clean
	// replication and used as the defense trigger.
	Attribution monitor.AttributionDetector
	// AttributionAlarms counts its alarms on the undefended lock attack.
	AttributionAlarms int
	// AttributionTriggered reports whether the trigger fired at all —
	// the condition under which the triggered defense row applies its
	// reservation instead of the undefended outcome.
	AttributionTriggered bool
	// TriggeredP95 is the client p95 of the attribution-triggered
	// reservation row: the reservation cell's measured p95 when the
	// trigger fired, the undefended one when it did not.
	TriggeredP95 time.Duration
}

// defenseRecord is one defense run's outcome. Matrix cells fill Point;
// the undefended lock cell also carries its fine- and coarse-grained
// millibottleneck detection, and it and the clean tuning replication
// carry their 50 ms feature series for the attribution trigger.
type defenseRecord struct {
	Point                    DefensePoint
	Episodes, CoarseEpisodes int
	Verdict                  defense.Classification
	Features                 featureCopy
}

func init() { register("defense", newDefenseJob) }

// newDefenseJob prepares the countermeasure evaluation: one run per
// matrix cell, plus a seed-derived attack-free replication whose feature
// stream calibrates the attribution trigger. Cell 0, the undefended lock
// attack, runs the detection side inside its own job.
func newDefenseJob(opts Options) (*job[defenseRecord], error) {
	type cell struct {
		attackName string
		kind       memmodel.AttackKind
		defName    string
		spec       *core.DefenseSpec
	}
	reservation := &core.DefenseSpec{VictimReservationMBps: memmodel.MySQLProfile().DemandMBps}
	splitLock := &core.DefenseSpec{SplitLockProtection: true}
	cells := []cell{
		{"memory-lock", memmodel.AttackMemoryLock, "none", nil},
		{"memory-lock", memmodel.AttackMemoryLock, "bandwidth-reservation", reservation},
		{"memory-lock", memmodel.AttackMemoryLock, "split-lock-protection", splitLock},
		{"bus-saturation", memmodel.AttackBusSaturation, "none", nil},
		{"bus-saturation", memmodel.AttackBusSaturation, "bandwidth-reservation", reservation},
		{"bus-saturation", memmodel.AttackBusSaturation, "split-lock-protection", splitLock},
	}
	run := func(a *stats.Arena, i int) (defenseRecord, error) {
		var rec defenseRecord
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Duration = opts.duration(90 * time.Second)
		cfg.Arena = a
		if i == len(cells) {
			cfg.Seed = sweep.DeriveSeed(opts.Seed, 200)
			cfg.Attack = nil
			cfg.Trace = featureSpec(monitor.GranularityFine)
			x, err := core.NewExperiment(cfg)
			if err == nil {
				_, err = x.Run()
			}
			if err != nil {
				return rec, fmt.Errorf("figures: defense clean tuning run: %w", err)
			}
			rec.Features = copyFeatures(x.Tracer().FeaturesAt(monitor.GranularityFine))
			return rec, nil
		}
		c := cells[i]
		cfg.Attack.Kind = c.kind
		// Give bus saturation its best shot: multiple adversaries.
		if c.kind == memmodel.AttackBusSaturation {
			cfg.Attack.AdversaryVMs = 4
		}
		cfg.Defense = c.spec
		if i == 0 {
			cfg.Trace = featureSpec(monitor.GranularityFine)
		}
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return rec, fmt.Errorf("figures: defense %s/%s: %w", c.attackName, c.defName, err)
		}
		rep, err := x.Run()
		if err != nil {
			return rec, fmt.Errorf("figures: defense %s/%s run: %w", c.attackName, c.defName, err)
		}
		rec.Point = DefensePoint{
			Attack:       c.attackName,
			Defense:      c.defName,
			ClientP95:    rep.Client.P95,
			DegradationD: rep.LastDegradation,
			Mitigated:    rep.Client.P95 < time.Second,
		}
		if i != 0 {
			return rec, nil
		}

		// Detection side: the fine- and coarse-grained detectors over
		// the undefended lock attack's exact CPU signal.
		source, err := victimCPU(x, cfg.Warmup)
		if err != nil {
			return rec, err
		}
		coarse := defense.DefaultDetector()
		coarse.Granularity = time.Second
		var found [2][]defense.Millibottleneck
		for k, dc := range []defense.DetectorConfig{defense.DefaultDetector(), coarse} {
			det, err := defense.NewDetector(dc)
			if err != nil {
				return rec, err
			}
			if found[k], err = det.Detect(source, cfg.Duration); err != nil {
				return rec, err
			}
		}
		rec.Episodes, rec.CoarseEpisodes = len(found[0]), len(found[1])
		rec.Verdict = defense.Classify(found[0], 5)
		rec.Features = copyFeatures(x.Tracer().FeaturesAt(monitor.GranularityFine))
		return rec, nil
	}
	finalize := func(records []defenseRecord) (any, string, error) {
		lock, clean := records[0], records[len(cells)]
		res := &DefenseResult{
			DetectorEpisodes:       lock.Episodes,
			DetectorVerdict:        lock.Verdict,
			DetectorOverhead:       defense.DefaultDetector().OverheadFraction(),
			CoarseDetectorEpisodes: lock.CoarseEpisodes,
		}
		for _, r := range records[:len(cells)] {
			res.Matrix = append(res.Matrix, r.Point)
		}

		// Attribution trigger: tune the feature detector on the
		// seed-derived clean replication against the undefended lock
		// attack, then use it as the activation condition for bandwidth
		// reservation. The triggered row's p95 is not a new simulation —
		// the trigger decides which of the two measured outcomes applies:
		// the reservation cell's (cell 1) when the detector fires, the
		// undefended cell's when it stays silent.
		lockFeatures := lock.Features.series()
		attribution, _, err := monitor.TuneAttribution(
			[]*telemetry.FeatureSeries{lockFeatures},
			[]*telemetry.FeatureSeries{clean.Features.series()},
			detectorMinCount,
		)
		if err != nil {
			return nil, "", fmt.Errorf("figures: tuning defense trigger: %w", err)
		}
		res.Attribution = attribution
		res.AttributionAlarms = len(attribution.DetectFeatures(lockFeatures))
		res.AttributionTriggered = res.AttributionAlarms > 0
		res.TriggeredP95 = lock.Point.ClientP95
		if res.AttributionTriggered {
			res.TriggeredP95 = records[1].Point.ClientP95
		}
		res.Matrix = append(res.Matrix, DefensePoint{
			Attack:       "memory-lock",
			Defense:      "attribution-triggered-reservation",
			ClientP95:    res.TriggeredP95,
			DegradationD: res.Matrix[0].DegradationD,
			Mitigated:    res.TriggeredP95 < time.Second,
		})

		if path := opts.path("defense_matrix.csv"); path != "" {
			rows := make([][]string, 0, len(res.Matrix))
			for _, p := range res.Matrix {
				rows = append(rows, []string{
					p.Attack, p.Defense,
					strconv.FormatFloat(p.ClientP95.Seconds()*1000, 'f', 1, 64),
					strconv.FormatFloat(p.DegradationD, 'f', 3, 64),
					strconv.FormatBool(p.Mitigated),
				})
			}
			if err := trace.WriteCSV(path, []string{"attack", "defense", "client_p95_ms", "degradation_d", "mitigated"}, rows); err != nil {
				return nil, "", err
			}
		}
		return res, fmt.Sprintf("defense: %d matrix rows, trigger fired=%t", len(res.Matrix), res.AttributionTriggered), nil
	}
	return &job[defenseRecord]{n: len(cells) + 1, run: run, finalize: finalize}, nil
}

// DefenseEvaluation runs the attack under no defense, bandwidth
// reservation, and split-lock protection, for both attack kinds, and runs
// the millibottleneck detector against the undefended lock attack.
func DefenseEvaluation(opts Options) (*DefenseResult, error) {
	return runFigure[*DefenseResult](opts, newDefenseJob)
}
