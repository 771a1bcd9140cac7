package figures

import (
	"fmt"
	"time"

	"memca/internal/analytical"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
)

// fig7Percentiles is the x-axis grid of the Figure 7 tail plots.
var fig7Percentiles = []float64{50, 60, 70, 75, 80, 85, 90, 92, 94, 95, 96, 97, 98, 99, 99.5, 99.9}

// Fig7Case names the three model variants of Figure 7.
type Fig7Case string

// Figure 7 cases.
const (
	// Fig7Tandem is case (a): tandem queues, infinite MySQL queue —
	// per-tier percentile curves nearly overlap.
	Fig7Tandem Fig7Case = "tandem"
	// Fig7InfiniteFront is case (b): the attack model with an infinite
	// Apache queue — tails amplify by cross-tier overflow, no drops.
	Fig7InfiniteFront Fig7Case = "infinite-front"
	// Fig7Finite is case (c): finite queues everywhere — drops and TCP
	// retransmissions push the client tail past every tier.
	Fig7Finite Fig7Case = "finite"
)

// Fig7CaseResult summarizes one variant.
type Fig7CaseResult struct {
	ClientP99 time.Duration
	MySQLP99  time.Duration
	// SpreadP99 is client p99 minus mysql p99: the amplification gap.
	SpreadP99 time.Duration
	Drops     uint64
}

// Fig7Result captures Figure 7: tail amplification across the three model
// variants under the same attack.
type Fig7Result struct {
	Cases map[Fig7Case]Fig7CaseResult
}

// fig7Record is one variant's run: the client curve followed by the
// per-tier curves (rubbosTierNames order), and the case summary.
type fig7Record struct {
	Curves [][]time.Duration
	Result Fig7CaseResult
}

func init() { register("fig7", newFig7Job) }

// newFig7Job prepares Figure 7: one independent simulation per model
// variant under the same attack.
func newFig7Job(opts Options) (*job[fig7Record], error) {
	horizon := opts.duration(3 * time.Minute)
	m := analytical.RUBBoS3Tier()

	variants := []struct {
		name   Fig7Case
		mode   queueing.Mode
		limits [3]int
	}{
		{Fig7Tandem, queueing.ModeTandem, [3]int{queueing.Infinite, queueing.Infinite, queueing.Infinite}},
		{Fig7InfiniteFront, queueing.ModeNTierRPC, [3]int{queueing.Infinite, m.Tiers[1].Queue, m.Tiers[2].Queue}},
		{Fig7Finite, queueing.ModeNTierRPC, [3]int{m.Tiers[0].Queue, m.Tiers[1].Queue, m.Tiers[2].Queue}},
	}
	return &job[fig7Record]{
		n: len(variants),
		run: func(a *stats.Arena, vi int) (fig7Record, error) {
			v := variants[vi]
			e := sim.NewEngine(opts.Seed)
			n, sources, err := modelNetwork(e, a, v.mode, v.limits, true)
			if err != nil {
				return fig7Record{}, fmt.Errorf("figures: fig7 %s: %w", v.name, err)
			}
			b, err := startModelAttack(e, n, sources)
			if err != nil {
				return fig7Record{}, err
			}
			n.ResetTierSamples()
			b.Start()
			e.Run(5*time.Second + horizon)
			stopModelAttack(b, sources)
			if err := e.RunAll(100_000_000); err != nil {
				return fig7Record{}, fmt.Errorf("figures: fig7 %s drain: %w", v.name, err)
			}

			// Client RT: merge the per-source samples (deep class dominates).
			client := stats.NewSampleIn(a, 4096)
			for _, s := range sources {
				for _, rt := range s.ClientRT().Values() {
					client.Add(rt)
				}
			}
			rec := fig7Record{Curves: [][]time.Duration{client.PercentileCurve(fig7Percentiles)}}
			for i := range rubbosTierNames() {
				sample, err := n.TierRT(i)
				if err != nil {
					return fig7Record{}, err
				}
				rec.Curves = append(rec.Curves, sample.PercentileCurve(fig7Percentiles))
			}

			mysqlSample, err := n.TierRT(2)
			if err != nil {
				return fig7Record{}, err
			}
			rec.Result = Fig7CaseResult{
				ClientP99: client.Percentile(99),
				MySQLP99:  mysqlSample.Percentile(99),
				Drops:     n.Drops(),
			}
			rec.Result.SpreadP99 = rec.Result.ClientP99 - rec.Result.MySQLP99
			return rec, nil
		},
		finalize: func(runs []fig7Record) (any, string, error) {
			res := &Fig7Result{Cases: make(map[Fig7Case]Fig7CaseResult)}
			order := append([]string{"client"}, rubbosTierNames()...)
			for i, v := range variants {
				curves := make(map[string][]time.Duration, len(order))
				for k, name := range order {
					curves[name] = runs[i].Curves[k]
				}
				if err := writeCurves(opts.path(fmt.Sprintf("fig7_%s.csv", v.name)), fig7Percentiles, order, curves); err != nil {
					return nil, "", err
				}
				res.Cases[v.name] = runs[i].Result
			}
			return res, fmt.Sprintf("fig7: finite-queue spread p99=%v", res.Cases[Fig7Finite].SpreadP99), nil
		},
	}, nil
}

// Fig7 runs the three variants and writes one percentile-curve CSV per
// case.
func Fig7(opts Options) (*Fig7Result, error) {
	return runFigure[*Fig7Result](opts, newFig7Job)
}
