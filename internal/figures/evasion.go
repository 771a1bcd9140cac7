package figures

import (
	"fmt"
	"strconv"
	"time"

	"memca/internal/core"
	"memca/internal/defense"
	"memca/internal/monitor"
	"memca/internal/stats"
	"memca/internal/trace"
)

// EvasionPoint is one jitter level's outcome.
type EvasionPoint struct {
	// Jitter is the interval randomization fraction.
	Jitter float64
	// ClientP95 is the damage (must survive jitter).
	ClientP95 time.Duration
	// Periodicity is the Figure 11-style autocorrelation of the victim's
	// CPU signal at the mean burst interval.
	Periodicity float64
	// Classified reports whether the defense classifier still calls the
	// detected millibottlenecks a pulsating attack.
	Classified bool
	// IntervalCV is the classifier's gap coefficient of variation.
	IntervalCV float64
}

// EvasionResult captures the detection-evasion arms race: randomizing the
// burst interval preserves the damage (the mean duty cycle is unchanged)
// while erasing the periodic autocorrelation signature the Figure 11
// analysis keys on. The episode-based classifier proves more robust: the
// burst-plus-RTO-echo structure keeps inter-episode gaps regular even
// under heavy jitter — evidence that millibottleneck *episode* detection,
// not spectral analysis, is the promising direction for the defense
// research the paper calls for.
type EvasionResult struct {
	Points []EvasionPoint
}

func init() { register("evasion", newEvasionJob) }

// newEvasionJob prepares the jitter sweep: one run per jitter level, each
// record the level's EvasionPoint.
func newEvasionJob(opts Options) (*job[EvasionPoint], error) {
	jitters := []float64{0, 0.25, 0.5, 0.75}
	run := func(a *stats.Arena, ji int) (EvasionPoint, error) {
		jitter := jitters[ji]
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Duration = opts.duration(2 * time.Minute)
		cfg.Attack.Params.Jitter = jitter
		// The busy integrator read below is arena-backed; it is consumed
		// in full before the job returns and the arena resets.
		cfg.Arena = a
		x, err := core.NewExperiment(cfg)
		if err != nil {
			return EvasionPoint{}, fmt.Errorf("figures: evasion jitter=%v: %w", jitter, err)
		}
		rep, err := x.Run()
		if err != nil {
			return EvasionPoint{}, fmt.Errorf("figures: evasion jitter=%v run: %w", jitter, err)
		}
		point := EvasionPoint{Jitter: jitter, ClientP95: rep.Client.P95}

		source, err := victimCPU(x, cfg.Warmup)
		if err != nil {
			return EvasionPoint{}, err
		}

		// Figure 11-style periodicity of the CPU signal at the mean
		// interval.
		sampler, err := monitor.NewSampler("cpu", 50*time.Millisecond, source)
		if err != nil {
			return EvasionPoint{}, err
		}
		buckets, err := sampler.Collect(cfg.Duration)
		if err != nil {
			return EvasionPoint{}, err
		}
		lag := int(cfg.Attack.Params.Interval / (50 * time.Millisecond))
		point.Periodicity, err = monitor.Periodicity(buckets, lag)
		if err != nil {
			return EvasionPoint{}, err
		}

		// Defense classifier verdict.
		det, err := defense.NewDetector(defense.DefaultDetector())
		if err != nil {
			return EvasionPoint{}, err
		}
		episodes, err := det.Detect(source, cfg.Duration)
		if err != nil {
			return EvasionPoint{}, err
		}
		verdict := defense.Classify(episodes, 5)
		point.Classified = verdict.PulsatingAttack
		point.IntervalCV = verdict.IntervalCV
		return point, nil
	}
	finalize := func(points []EvasionPoint) (any, string, error) {
		res := &EvasionResult{Points: points}
		summary := fmt.Sprintf("evasion: %d jitter levels", len(points))
		path := opts.path("evasion_jitter.csv")
		if path == "" {
			return res, summary, nil
		}
		rows := make([][]string, 0, len(res.Points))
		for _, p := range res.Points {
			rows = append(rows, []string{
				strconv.FormatFloat(p.Jitter, 'f', 2, 64),
				strconv.FormatFloat(p.ClientP95.Seconds()*1000, 'f', 1, 64),
				strconv.FormatFloat(p.Periodicity, 'f', 3, 64),
				strconv.FormatBool(p.Classified),
				strconv.FormatFloat(p.IntervalCV, 'f', 3, 64),
			})
		}
		return res, summary, trace.WriteCSV(path, []string{"jitter", "client_p95_ms", "periodicity", "classified", "interval_cv"}, rows)
	}
	return &job[EvasionPoint]{n: len(jitters), run: run, finalize: finalize}, nil
}

// JitterEvasion sweeps the attack's interval jitter and evaluates damage
// versus detectability at each level.
func JitterEvasion(opts Options) (*EvasionResult, error) {
	return runFigure[*EvasionResult](opts, newEvasionJob)
}
