package figures

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"memca/internal/analytical"
	"memca/internal/attack"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
	"memca/internal/trace"
)

// fig6Attack is the attack parameterization of the model experiments
// (Figures 6 and 7): strong degradation, 500 ms bursts every 2 s.
func fig6Attack() (float64, attack.Params) {
	return 0.05, attack.Params{Intensity: 1, BurstLength: 500 * time.Millisecond, Interval: 2 * time.Second}
}

// Fig6Result captures Figure 6: cross-tier queue overflow under MemCA in
// the paper's system model versus the classic tandem queue.
type Fig6Result struct {
	// TandemMySQLMax is the peak MySQL occupancy in the tandem model —
	// all queued work sits in the last tier.
	TandemMySQLMax float64
	// TandemUpstreamMax is the peak occupancy across Apache and Tomcat
	// in the tandem model (stays near their own service needs).
	TandemUpstreamMax float64
	// RPCFilled reports whether every tier's queue hit its limit in the
	// RPC model (overflow propagated to the front).
	RPCFilled bool
	// RPCFillOrder holds the first-full times per tier (apache, tomcat,
	// mysql) of the RPC model's first burst; back-to-front propagation
	// means mysql <= tomcat <= apache.
	RPCFillOrder [3]time.Duration
}

// fig6Record is one model's run: the occupancy time line around the
// first post-warmup bursts plus per-tier peaks and first-full instants.
type fig6Record struct {
	Buckets [][4]float64 // t, apache, tomcat, mysql
	MaxOcc  [3]float64
	FullAt  [3]time.Duration
}

func init() { register("fig6", newFig6Job) }

// newFig6Job prepares Figure 6: two independent models under the same
// attack — the tandem baseline (infinite queues, work piles at the
// bottleneck) and the paper's RPC model (finite descending queues,
// overflow propagates front).
func newFig6Job(opts Options) (*job[fig6Record], error) {
	horizon := opts.duration(40 * time.Second)
	m := analytical.RUBBoS3Tier()
	variants := []struct {
		name   string
		mode   queueing.Mode
		limits [3]int
	}{
		{"tandem", queueing.ModeTandem, [3]int{queueing.Infinite, queueing.Infinite, queueing.Infinite}},
		{"rpc", queueing.ModeNTierRPC, [3]int{m.Tiers[0].Queue, m.Tiers[1].Queue, m.Tiers[2].Queue}},
	}

	run := func(a *stats.Arena, mode queueing.Mode, queueLimits [3]int) (fig6Record, error) {
		var rr fig6Record
		e := sim.NewEngine(opts.Seed)
		n, sources, err := modelNetwork(e, a, mode, queueLimits, true)
		if err != nil {
			return rr, err
		}
		b, err := startModelAttack(e, n, sources)
		if err != nil {
			return rr, err
		}
		b.Start()
		attackStart := e.Now()

		// Track first-full instants with a fine poller.
		var poll func()
		poll = func() {
			for i := 0; i < 3; i++ {
				st, err := n.TierState(i)
				if err != nil {
					return
				}
				occ := float64(st.InUse)
				if occ > rr.MaxOcc[i] {
					rr.MaxOcc[i] = occ
				}
				if queueLimits[i] != queueing.Infinite && rr.FullAt[i] == 0 && st.InUse >= queueLimits[i] {
					rr.FullAt[i] = e.Now() - attackStart
				}
			}
			if e.Now() < horizon {
				e.Schedule(5*time.Millisecond, poll)
			}
		}
		e.Schedule(0, poll)
		e.Run(horizon)
		stopModelAttack(b, sources)

		// Export a 8-second window around the first post-warmup bursts
		// at 20 ms resolution.
		const width = 20 * time.Millisecond
		for t := attackStart; t < attackStart+8*time.Second; t += width {
			row := [4]float64{(t - attackStart).Seconds()}
			for i := 0; i < 3; i++ {
				occ, err := n.TierOccupancy(i)
				if err != nil {
					return rr, err
				}
				row[i+1] = occ.WindowAverage(t, t+width)
			}
			rr.Buckets = append(rr.Buckets, row)
		}
		return rr, nil
	}

	writeRun := func(name string, rr fig6Record) error {
		path := opts.path(name)
		if path == "" {
			return nil
		}
		rows := make([][]string, 0, len(rr.Buckets))
		for _, b := range rr.Buckets {
			rows = append(rows, []string{
				strconv.FormatFloat(b[0], 'f', 3, 64),
				strconv.FormatFloat(b[1], 'f', 2, 64),
				strconv.FormatFloat(b[2], 'f', 2, 64),
				strconv.FormatFloat(b[3], 'f', 2, 64),
			})
		}
		return trace.WriteCSV(path, []string{"t_s", "apache_q", "tomcat_q", "mysql_q"}, rows)
	}

	return &job[fig6Record]{
		n: len(variants),
		run: func(a *stats.Arena, i int) (fig6Record, error) {
			rr, err := run(a, variants[i].mode, variants[i].limits)
			if err != nil {
				return rr, fmt.Errorf("figures: fig6 %s: %w", variants[i].name, err)
			}
			return rr, nil
		},
		finalize: func(runs []fig6Record) (any, string, error) {
			tandem, rpc := runs[0], runs[1]
			res := &Fig6Result{
				TandemMySQLMax:    tandem.MaxOcc[2],
				TandemUpstreamMax: max(tandem.MaxOcc[0], tandem.MaxOcc[1]),
				RPCFilled:         !slices.Contains(rpc.FullAt[:], 0),
				RPCFillOrder:      rpc.FullAt,
			}
			if err := writeRun("fig6_tandem.csv", tandem); err != nil {
				return nil, "", err
			}
			if err := writeRun("fig6_rpc.csv", rpc); err != nil {
				return nil, "", err
			}
			return res, fmt.Sprintf("fig6: tandem mysql max %.0f, rpc all queues filled=%t", res.TandemMySQLMax, res.RPCFilled), nil
		},
	}, nil
}

// Fig6 runs both queueing models under identical ON-OFF attacks and
// writes per-tier occupancy time lines.
func Fig6(opts Options) (*Fig6Result, error) {
	return runFigure[*Fig6Result](opts, newFig6Job)
}
