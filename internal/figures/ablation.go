package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"memca/internal/core"
	"memca/internal/memmodel"
	"memca/internal/queueing"
	"memca/internal/sim"
	"memca/internal/stats"
	"memca/internal/trace"
	"memca/internal/workload"
)

// AblationPoint is one configuration's outcome in a sweep.
type AblationPoint struct {
	// Label identifies the configuration (e.g. "L=500ms").
	Label string
	// ClientP95 and ClientP99 are the damage metrics.
	ClientP95 time.Duration
	ClientP99 time.Duration
	// CoarseUtil is the 1-minute mean CPU of the victim (stealth).
	CoarseUtil float64
	// Drops counts front-tier rejections.
	Drops uint64
}

// AblationResult aggregates one sweep.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// runAttackVariant runs the default experiment with the given mutation
// applied to its configuration and summarizes it as an AblationPoint.
// The arena (may be nil) backs the run's stats; the point holds no
// arena-backed memory.
func runAttackVariant(opts Options, a *stats.Arena, label string, mutate func(*core.Config)) (AblationPoint, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.Duration = opts.duration(2 * time.Minute)
	cfg.Arena = a
	if mutate != nil {
		mutate(&cfg)
	}
	x, err := core.NewExperiment(cfg)
	if err != nil {
		return AblationPoint{}, fmt.Errorf("figures: ablation %s: %w", label, err)
	}
	rep, err := x.Run()
	if err != nil {
		return AblationPoint{}, fmt.Errorf("figures: ablation %s run: %w", label, err)
	}
	p := AblationPoint{
		Label:     label,
		ClientP95: rep.Client.P95,
		ClientP99: rep.Client.P99,
		Drops:     rep.Drops,
	}
	// Use the coarsest available utilization view (the 1-minute view is
	// skipped when quick-mode horizons are shorter than a minute).
	coarsest := time.Duration(0)
	for _, v := range rep.VictimUtilization {
		if v.Granularity > coarsest {
			coarsest = v.Granularity
			p.CoarseUtil = v.Mean
		}
	}
	return p, nil
}

// attackVariant is one cell of a closed-loop ablation sweep.
type attackVariant struct {
	label  string
	mutate func(*core.Config)
}

// variantJob returns the job of a closed-loop ablation sweep: one run per
// variant, each an AblationPoint record. AblationPoint has no map
// fields, so its gob encoding is stable (see encodeRecord).
func variantJob(name string, variants func() []attackVariant) func(Options) (*job[AblationPoint], error) {
	return func(opts Options) (*job[AblationPoint], error) {
		vs := variants()
		return &job[AblationPoint]{
			n: len(vs),
			run: func(a *stats.Arena, i int) (AblationPoint, error) {
				return runAttackVariant(opts, a, vs[i].label, vs[i].mutate)
			},
			finalize: ablationFinalize(opts, name),
		}, nil
	}
}

// ablationFinalize assembles AblationPoint records in variant order into
// the sweep's result, writes ablation_<name>.csv, and summarizes the
// damage range.
func ablationFinalize(opts Options, name string) func([]AblationPoint) (any, string, error) {
	return func(points []AblationPoint) (any, string, error) {
		res := &AblationResult{Name: name, Points: points}
		lo, hi := time.Duration(0), time.Duration(0)
		rows := make([][]string, 0, len(points))
		for i, p := range points {
			if i == 0 || p.ClientP95 < lo {
				lo = p.ClientP95
			}
			hi = max(hi, p.ClientP95)
			rows = append(rows, []string{
				p.Label,
				strconv.FormatFloat(p.ClientP95.Seconds()*1000, 'f', 1, 64),
				strconv.FormatFloat(p.ClientP99.Seconds()*1000, 'f', 1, 64),
				strconv.FormatFloat(p.CoarseUtil, 'f', 4, 64),
				strconv.FormatUint(p.Drops, 10),
			})
		}
		summary := fmt.Sprintf("ablation %s: %d points, client p95 %v..%v", name, len(points), lo, hi)
		if path := opts.path("ablation_" + strings.ReplaceAll(name, "-", "_") + ".csv"); path != "" {
			header := []string{"config", "client_p95_ms", "client_p99_ms", "coarse_util", "drops"}
			return res, summary, trace.WriteCSV(path, header, rows)
		}
		return res, summary, nil
	}
}

// ablationJobs holds the ablation sweeps by name; each registers a dist
// driver named "ablation-<name>" and backs the corresponding Ablation*
// function.
var ablationJobs = map[string]func(Options) (*job[AblationPoint], error){
	"burst-length":         variantJob("burst-length", burstLengthVariants),
	"interval":             variantJob("interval", intervalVariants),
	"adversaries":          variantJob("adversaries", adversariesVariants),
	"load":                 variantJob("load", loadVariants),
	"service-distribution": variantJob("service-distribution", serviceDistributionVariants),
	"mechanisms":           newMechanismsJob,
}

func init() {
	for name, prepare := range ablationJobs {
		register("ablation-"+name, prepare)
	}
}

// runAblation executes one ablation sweep fully in-process.
func runAblation(name string, opts Options) (*AblationResult, error) {
	return runFigure[*AblationResult](opts, ablationJobs[name])
}

// burstLengthVariants sweeps the burst length L at fixed I = 2 s.
func burstLengthVariants() []attackVariant {
	var variants []attackVariant
	for _, l := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 350 * time.Millisecond, 500 * time.Millisecond, 800 * time.Millisecond} {
		variants = append(variants, attackVariant{fmt.Sprintf("L=%v", l), func(c *core.Config) {
			c.Attack.Params.BurstLength = l
		}})
	}
	return variants
}

// AblationBurstLength sweeps the burst length L at fixed I = 2 s: the
// damage-vs-stealth trade-off of Equations (7) and (10). Short bursts
// never complete the build-up stage (no damage); long bursts raise the
// coarse utilization toward detectability.
func AblationBurstLength(opts Options) (*AblationResult, error) {
	return runAblation("burst-length", opts)
}

// intervalVariants sweeps the burst interval I at fixed L = 500 ms.
func intervalVariants() []attackVariant {
	var variants []attackVariant
	for _, iv := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		variants = append(variants, attackVariant{fmt.Sprintf("I=%v", iv), func(c *core.Config) {
			c.Attack.Params.Interval = iv
		}})
	}
	return variants
}

// AblationInterval sweeps the burst interval I at fixed L = 500 ms: the
// frequency axis of Equation (8), ρ = P_D / I.
func AblationInterval(opts Options) (*AblationResult, error) {
	return runAblation("interval", opts)
}

// newMechanismsJob prepares the mechanism-removal ablation, which uses
// the model-level network (open-loop arrivals) so the mechanisms can be
// toggled independently of the closed-loop client population.
func newMechanismsJob(opts Options) (*job[AblationPoint], error) {
	horizon := opts.duration(2 * time.Minute)

	type variant struct {
		label      string
		mode       queueing.Mode
		infinite   bool
		retransmit bool
	}
	variants := []variant{
		{"full", queueing.ModeNTierRPC, false, true},
		{"no-retransmit", queueing.ModeNTierRPC, false, false},
		{"infinite-queues", queueing.ModeNTierRPC, true, false},
		{"no-slot-holding", queueing.ModeTandem, true, false},
	}
	tiers := workload.RUBBoSTiers()
	m := [3]int{tiers[0].QueueLimit, tiers[1].QueueLimit, tiers[2].QueueLimit}
	return &job[AblationPoint]{
		n: len(variants),
		run: func(a *stats.Arena, i int) (AblationPoint, error) {
			v := variants[i]
			limits := m
			if v.infinite {
				limits = [3]int{queueing.Infinite, queueing.Infinite, queueing.Infinite}
			}
			e := sim.NewEngine(opts.Seed)
			n, sources, err := modelNetwork(e, a, v.mode, limits, v.retransmit)
			if err != nil {
				return AblationPoint{}, fmt.Errorf("figures: ablation %s: %w", v.label, err)
			}
			point, err := runModelAttack(e, n, sources, horizon)
			if err != nil {
				return AblationPoint{}, fmt.Errorf("figures: ablation %s: %w", v.label, err)
			}
			point.Label = v.label
			return point, nil
		},
		finalize: ablationFinalize(opts, "mechanisms"),
	}, nil
}

// AblationMechanisms removes the three amplification mechanisms one at a
// time, quantifying each one's contribution to the client tail:
//
//   - "full": the complete model (slot-holding, finite queues, TCP
//     retransmission);
//   - "no-retransmit": drops are final — the RTO floor disappears from
//     the client tail;
//   - "infinite-queues": nothing is ever dropped — only queueing delay
//     remains;
//   - "no-slot-holding": tandem coupling — overflow cannot propagate.
func AblationMechanisms(opts Options) (*AblationResult, error) {
	return runAblation("mechanisms", opts)
}

// adversariesVariants sweeps the co-located adversary VM count.
func adversariesVariants() []attackVariant {
	var variants []attackVariant
	for _, k := range []int{1, 2, 4} {
		variants = append(variants, attackVariant{fmt.Sprintf("lock-x%d", k), func(c *core.Config) {
			c.Attack.AdversaryVMs = k
		}})
	}
	for _, k := range []int{1, 4} {
		variants = append(variants, attackVariant{fmt.Sprintf("saturation-x%d", k), func(c *core.Config) {
			c.Attack.Kind = memmodel.AttackBusSaturation
			c.Attack.AdversaryVMs = k
		}})
	}
	return variants
}

// AblationAdversaries sweeps the number of co-located adversary VMs for
// the bus-saturation attack (the lock attack needs only one, which is the
// paper's point; saturation needs many to bite).
func AblationAdversaries(opts Options) (*AblationResult, error) {
	return runAblation("adversaries", opts)
}

// loadVariants sweeps the legitimate client population.
func loadVariants() []attackVariant {
	var variants []attackVariant
	for _, clients := range []int{875, 1750, 3500, 5000} {
		variants = append(variants, attackVariant{fmt.Sprintf("clients=%d", clients), func(c *core.Config) {
			c.Clients = clients
		}})
	}
	return variants
}

// AblationLoad sweeps the legitimate client population: condition 2
// (λ_n > C_n,ON) needs enough background load for the degraded bottleneck
// to overflow, so a lightly loaded system resists the same attack.
func AblationLoad(opts Options) (*AblationResult, error) {
	return runAblation("load", opts)
}

// serviceDistributionVariants swaps the per-tier service-time
// distributions.
func serviceDistributionVariants() []attackVariant {
	base := workload.RUBBoSTiers()
	variants := []struct {
		label string
		make  func(mean time.Duration) sim.Dist
	}{
		{"exponential", func(m time.Duration) sim.Dist { return sim.NewExponential(m) }},
		{"erlang-4", func(m time.Duration) sim.Dist { return sim.NewErlang(4, m) }},
		{"lognormal-1.2", func(m time.Duration) sim.Dist { return sim.NewLogNormalFromMean(m, 1.2) }},
		{"deterministic", func(m time.Duration) sim.Dist { return sim.NewDeterministic(m) }},
	}
	means := []time.Duration{600 * time.Microsecond, 1200 * time.Microsecond, 1600 * time.Microsecond}
	cells := make([]attackVariant, 0, len(variants))
	for _, v := range variants {
		cells = append(cells, attackVariant{v.label, func(c *core.Config) {
			tiers := make([]queueing.TierConfig, len(base))
			copy(tiers, base)
			for i := range tiers {
				tiers[i].Service = v.make(means[i])
			}
			c.Tiers = tiers
		}})
	}
	return cells
}

// AblationServiceDistribution swaps the per-tier service-time
// distributions (the paper assumes exponential capacities) and reruns the
// attack: tail amplification should be robust to the distributional
// assumption because it is driven by capacity starvation and drops, not
// by service-time variance.
func AblationServiceDistribution(opts Options) (*AblationResult, error) {
	return runAblation("service-distribution", opts)
}

// runModelAttack drives an open-loop model network under ON-OFF bursts
// and summarizes client damage.
func runModelAttack(e *sim.Engine, n *queueing.Network, sources []*queueing.Source, horizon time.Duration) (AblationPoint, error) {
	b, err := startModelAttack(e, n, sources)
	if err != nil {
		return AblationPoint{}, err
	}
	b.Start()
	e.Run(5*time.Second + horizon)
	stopModelAttack(b, sources)
	if err := e.RunAll(200_000_000); err != nil {
		return AblationPoint{}, err
	}
	client := stats.NewSample(4096)
	for _, s := range sources {
		for _, rt := range s.ClientRT().Values() {
			client.Add(rt)
		}
	}
	busy, err := n.TierBusy(2)
	if err != nil {
		return AblationPoint{}, err
	}
	return AblationPoint{
		ClientP95:  client.Percentile(95),
		ClientP99:  client.Percentile(99),
		CoarseUtil: busy.WindowAverage(5*time.Second, 5*time.Second+horizon) / 2,
		Drops:      n.Drops(),
	}, nil
}
