package figures

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"memca/internal/core"
	"memca/internal/monitor"
	"memca/internal/stats"
)

// FlashCrowdResult contrasts an organic load surge with MemCA: a flash
// crowd raises the 1-minute average CPU, trips the Auto Scaling trigger,
// gets absorbed by the new capacity, and leaves again — everything the
// cloud's machinery was designed for and everything MemCA avoids.
type FlashCrowdResult struct {
	// ScaleEvents is how many scale-out actions fired (>= 1 expected).
	ScaleEvents int
	// PeakCoarseUtil is the highest 1-minute average CPU (visible).
	PeakCoarseUtil float64
	// CrowdP95 is the client p95 during the surge before capacity
	// arrived.
	CrowdP95 time.Duration
	// AbsorbedP95 is the client p95 after the scale-out took effect.
	AbsorbedP95 time.Duration
}

// crowdRecord is the flash-crowd run's outcome: the result scalars and a
// copy of the generator's per-completion response-time series.
type crowdRecord struct {
	Result FlashCrowdResult
	Series stats.TimeSeries
}

func init() { register("crowd", newCrowdJob) }

// newCrowdJob prepares the flash-crowd contrast: a single run, still
// routed through the job model so every figure driver shares one
// execution and progress path.
func newCrowdJob(opts Options) (*job[crowdRecord], error) {
	run := func(a *stats.Arena, _ int) (crowdRecord, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Arena = a
		cfg.Attack = nil
		cfg.Duration = 5 * time.Minute // fixed: the 1-min trigger needs room
		cfg.Scaling = &core.ScalingSpec{
			Trigger:        monitor.DefaultAutoScaler(),
			MaxInstances:   4,
			ProvisionDelay: 30 * time.Second,
		}
		// The crowd spans three minutes: long enough for the 1-minute
		// trigger to fire (~t+70s), the instance to boot (+30s), and the
		// overload backlog to drain before the absorbed-phase measurement.
		crowdStart := cfg.Warmup + 30*time.Second
		crowdEnd := cfg.Warmup + 210*time.Second

		x, err := core.NewExperiment(cfg)
		if err != nil {
			return crowdRecord{}, fmt.Errorf("figures: flash crowd: %w", err)
		}
		engine := x.Engine()
		engine.At(crowdStart, func() { x.Generator().SetPopulation(cfg.Clients*2, 5*time.Second) })
		engine.At(crowdEnd, func() { x.Generator().SetPopulation(cfg.Clients, 0) })

		// Collect client RTs per phase.
		x.Generator().RecordSeries(true)
		rep, err := x.Run()
		if err != nil {
			return crowdRecord{}, fmt.Errorf("figures: flash crowd run: %w", err)
		}

		res := FlashCrowdResult{ScaleEvents: len(rep.ScaleEvents)}
		for _, v := range rep.VictimUtilization {
			if v.Granularity == monitor.GranularityCloud && v.Max > res.PeakCoarseUtil {
				res.PeakCoarseUtil = v.Max
			}
		}
		// Phase percentiles from the per-completion series, which is
		// arena-backed: copied out below before the arena resets.
		series := x.Generator().RTSeries()
		crowdRTs := make([]time.Duration, 0, 4096)
		absorbedRTs := make([]time.Duration, 0, 4096)
		absorbedFrom := crowdStart + 140*time.Second // provision landed + backlog drained
		for _, p := range series.Points {
			rt := time.Duration(p.V * float64(time.Second))
			switch {
			case p.T >= crowdStart+30*time.Second && p.T < crowdStart+90*time.Second:
				crowdRTs = append(crowdRTs, rt)
			case p.T >= absorbedFrom && p.T < crowdEnd:
				absorbedRTs = append(absorbedRTs, rt)
			}
		}
		res.CrowdP95 = percentileOf(crowdRTs, 0.95)
		res.AbsorbedP95 = percentileOf(absorbedRTs, 0.95)
		return crowdRecord{Result: res, Series: stats.TimeSeries{Name: series.Name, Points: slices.Clone(series.Points)}}, nil
	}
	return &job[crowdRecord]{n: 1, run: run, finalize: func(records []crowdRecord) (any, string, error) {
		rec := records[0]
		if err := writeSeries(opts.path("flashcrowd.csv"), &rec.Series); err != nil {
			return nil, "", err
		}
		res := rec.Result
		return &res, fmt.Sprintf("crowd: %d scale events, surge p95 %v -> %v", res.ScaleEvents, res.CrowdP95, res.AbsorbedP95), nil
	}}, nil
}

// FlashCrowd doubles the client population for two minutes of a four-
// minute attackless run with a live scaling group attached.
func FlashCrowd(opts Options) (*FlashCrowdResult, error) {
	return runFigure[*FlashCrowdResult](opts, newCrowdJob)
}

// percentileOf computes a simple order-statistic percentile.
func percentileOf(vals []time.Duration, q float64) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	cp := make([]time.Duration, len(vals))
	copy(cp, vals)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(q * float64(len(cp)-1))
	return cp[idx]
}
