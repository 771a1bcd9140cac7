// Package figures regenerates every table and figure of the paper's
// evaluation: each FigN function runs the corresponding experiment at full
// scale, writes the plot-ready CSV artifacts under an output directory,
// and returns the key scalars so benchmarks and tests can assert the
// paper's qualitative claims (who wins, by what factor, where the
// crossovers fall).
package figures

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"memca/internal/analytical"
	"memca/internal/attack"
	"memca/internal/core"
	"memca/internal/monitor"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
	"memca/internal/telemetry"
	"memca/internal/trace"
	"memca/internal/workload"
)

// Options control figure generation.
type Options struct {
	// OutDir receives CSV artifacts; empty disables file output.
	OutDir string
	// Quick shrinks run horizons (~4x) for smoke tests and benchmarks.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Parallel bounds the worker count for multi-run drivers: 0 means
	// one worker per available CPU, 1 forces the serial path. Results
	// and CSV artifacts are byte-identical for every value (see
	// internal/sweep).
	Parallel int
	// Progress, when non-nil, is called after each independent run of a
	// multi-run driver with (completed, total) counts. Completion order
	// is nondeterministic under parallelism; this is a display hook.
	Progress func(done, total int)
}

// DefaultOptions returns full-scale generation into out/.
func DefaultOptions() Options {
	return Options{OutDir: "out", Seed: 1}
}

// duration returns full, or full/4 in quick mode (minimum 20 s).
func (o Options) duration(full time.Duration) time.Duration {
	if !o.Quick {
		return full
	}
	d := full / 4
	if d < 20*time.Second {
		d = 20 * time.Second
	}
	return d
}

// path joins OutDir with name; it returns "" when output is disabled.
func (o Options) path(name string) string {
	if o.OutDir == "" {
		return ""
	}
	return filepath.Join(o.OutDir, name)
}

// writeCurves writes a percentile-curve CSV unless output is disabled.
func writeCurves(path string, percentiles []float64, order []string, curves map[string][]time.Duration) error {
	if path == "" {
		return nil
	}
	return trace.PercentileCurveCSV(path, percentiles, order, curves)
}

// writeBuckets writes a bucket CSV unless output is disabled.
func writeBuckets(path string, buckets []stats.Bucket) error {
	if path == "" {
		return nil
	}
	return trace.BucketsCSV(path, buckets)
}

// writeSeries writes a raw series CSV unless output is disabled.
func writeSeries(path string, ts *stats.TimeSeries) error {
	if path == "" {
		return nil
	}
	return trace.SeriesCSV(path, ts)
}

// modelNetwork builds the 3-tier queueing network matching the analytical
// RUBBoS model (one class per tier depth, rates from the model), used by
// the model-level experiments of Figures 6 and 7 and the mechanism
// ablation. mode selects tandem or RPC coupling; queueLimits overrides
// the per-tier limits (0 = Infinite); retransmit gives the sources TCP
// retransmission. a, when non-nil, backs the network's per-tier stats and
// the sources' client samples (see stats.Arena).
func modelNetwork(e *sim.Engine, a *stats.Arena, mode queueing.Mode, queueLimits [3]int, retransmit bool) (*queueing.Network, []*queueing.Source, error) {
	m := analytical.RUBBoS3Tier()
	const servers = 2
	tiers := make([]queueing.TierConfig, 3)
	for i, t := range m.Tiers {
		tiers[i] = queueing.TierConfig{
			Name:       t.Name,
			QueueLimit: queueLimits[i],
			Servers:    servers,
			Service:    sim.NewExponential(time.Duration(float64(servers) / t.CapacityOFF * float64(time.Second))),
		}
	}
	classes := []queueing.Class{
		{Name: "to-apache", Depth: 0},
		{Name: "to-tomcat", Depth: 1},
		{Name: "to-mysql", Depth: 2},
	}
	n, err := queueing.New(e, queueing.Config{Mode: mode, Tiers: tiers, Classes: classes, Arena: a})
	if err != nil {
		return nil, nil, err
	}
	sources := make([]*queueing.Source, 0, 3)
	for i, t := range m.Tiers {
		if t.ArrivalRate <= 0 {
			continue
		}
		cfg := queueing.SourceConfig{Class: i, Rate: t.ArrivalRate}
		if retransmit {
			cfg.Retransmit = queueing.DefaultRetransmit()
		}
		src, err := queueing.NewPoissonSource(n, cfg)
		if err != nil {
			return nil, nil, err
		}
		sources = append(sources, src)
	}
	return n, sources, nil
}

// startModelAttack arms the model experiments' attack (fig6Attack) on the
// network's MySQL tier, starts the sources, and runs the 5 s warmup. The
// caller starts the returned burster.
func startModelAttack(e *sim.Engine, n *queueing.Network, sources []*queueing.Source) (*attack.Burster, error) {
	d, params := fig6Attack()
	inj, err := attack.NewDirectInjector(n, 2, d)
	if err != nil {
		return nil, err
	}
	b, err := attack.NewBurster(e, inj, params)
	if err != nil {
		return nil, err
	}
	for _, s := range sources {
		s.Start()
	}
	e.Run(5 * time.Second)
	return b, nil
}

// stopModelAttack stops the burster and the sources.
func stopModelAttack(b *attack.Burster, sources []*queueing.Source) {
	b.Stop()
	for _, s := range sources {
		s.Stop()
	}
}

// featureSpec is a tracing spec that keeps only the streaming feature
// series at the given window widths (no event ring, tail or head
// samples, or timelines): the attribution detector's input.
func featureSpec(windows ...time.Duration) *telemetry.Spec {
	spec := telemetry.DefaultSpec()
	spec.EventRing = 0
	spec.TailKeep = 0
	spec.HeadEvery = 0
	spec.HeadKeep = 0
	spec.Resolutions = nil
	spec.FeatureWindows = windows
	spec.TailOver = time.Second
	return &spec
}

// featureCopy is a feature series copied out of a finished run's tracer
// in the exported form a job record carries.
type featureCopy struct {
	Res, TailThreshold, Base time.Duration
	Windows                  []telemetry.WindowFeatures
}

func copyFeatures(fs *telemetry.FeatureSeries) featureCopy {
	return featureCopy{fs.Res, fs.TailThreshold, fs.Base(), slices.Clone(fs.Windows())}
}

// series rebuilds the copied feature series for the detectors.
func (c featureCopy) series() *telemetry.FeatureSeries {
	fs := telemetry.RestoreFeatureSeries(c.Res, c.TailThreshold, c.Base, c.Windows)
	return &fs
}

// victimCPU returns the victim (MySQL) tier's CPU utilization signal of a
// finished run, with time measured from the end of warmup. It reads the
// run's busy integrator, so it must be consumed before the arena resets.
func victimCPU(x *core.Experiment, warmup time.Duration) (monitor.UtilizationSource, error) {
	busy, err := x.Network().TierBusy(2)
	if err != nil {
		return nil, err
	}
	return func(from, to time.Duration) float64 {
		return busy.WindowAverage(warmup+from, warmup+to) / 2
	}, nil
}

// rubbosTierNames returns the canonical tier labels.
func rubbosTierNames() []string { return []string{"apache", "tomcat", "mysql"} }

// checkTiersMatch guards figure code against topology drift.
func checkTiersMatch() error {
	tiers := workload.RUBBoSTiers()
	if len(tiers) != 3 {
		return fmt.Errorf("figures: expected 3 RUBBoS tiers, got %d", len(tiers))
	}
	return nil
}
