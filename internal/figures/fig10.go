package figures

import (
	"fmt"
	"time"

	"memca/internal/core"
	"memca/internal/monitor"
)

// Fig10Result captures Figure 10: the same MySQL CPU signal through
// 1-minute, 1-second, and 50-millisecond monitoring, plus the Auto
// Scaling verdict.
type Fig10Result struct {
	// MaxByGranularity maps granularity to the largest sampled
	// utilization.
	MaxByGranularity map[time.Duration]float64
	// MeanCoarse is the 1-minute average (flat and moderate).
	MeanCoarse float64
	// AutoScalingTriggered reports whether the 85%/1-min trigger fired.
	AutoScalingTriggered bool
	// ScaleEventsLive is the number of events from the live scaling
	// group during the run (must be 0 for the bypass claim).
	ScaleEventsLive int
}

// Fig10 runs the 3-minute attack with a live Auto Scaling group attached
// to MySQL and exports the three sampled views.
func Fig10(opts Options) (*Fig10Result, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.Duration = opts.duration(3 * time.Minute)
	cfg.Scaling = &core.ScalingSpec{Trigger: monitor.DefaultAutoScaler(), MaxInstances: 4}
	x, err := core.NewExperiment(cfg)
	if err != nil {
		return nil, fmt.Errorf("figures: fig10: %w", err)
	}
	rep, err := x.Run()
	if err != nil {
		return nil, fmt.Errorf("figures: fig10 run: %w", err)
	}

	res := &Fig10Result{MaxByGranularity: make(map[time.Duration]float64)}
	res.ScaleEventsLive = len(rep.ScaleEvents)

	// Re-sample the exact busy signal at the three granularities over
	// the measured window.
	source, err := victimCPU(x, cfg.Warmup)
	if err != nil {
		return nil, err
	}
	horizon := cfg.Duration
	names := map[time.Duration]string{
		monitor.GranularityCloud: "fig10a_cpu_1min.csv",
		monitor.GranularityUser:  "fig10b_cpu_1s.csv",
		monitor.GranularityFine:  "fig10c_cpu_50ms.csv",
	}
	for _, g := range []time.Duration{monitor.GranularityCloud, monitor.GranularityUser, monitor.GranularityFine} {
		sampler, err := monitor.NewSampler("cpu", g, source)
		if err != nil {
			return nil, err
		}
		buckets, err := sampler.Collect(horizon)
		if err != nil {
			return nil, err
		}
		max, sum := 0.0, 0.0
		for _, b := range buckets {
			if b.Mean > max {
				max = b.Mean
			}
			sum += b.Mean
		}
		res.MaxByGranularity[g] = max
		if g == monitor.GranularityCloud && len(buckets) > 0 {
			res.MeanCoarse = sum / float64(len(buckets))
		}
		if err := writeBuckets(opts.path(names[g]), buckets); err != nil {
			return nil, err
		}
	}

	// Offline trigger evaluation over the same signal.
	scaler, err := monitor.NewAutoScaler(monitor.DefaultAutoScaler())
	if err != nil {
		return nil, err
	}
	events, err := scaler.Evaluate(source, horizon)
	if err != nil {
		return nil, err
	}
	res.AutoScalingTriggered = len(events) > 0
	return res, nil
}
