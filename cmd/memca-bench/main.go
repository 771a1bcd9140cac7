// Command memca-bench regenerates the paper's tables and figures: each
// -fig target runs the corresponding experiment at full scale, writes
// plot-ready CSVs under -out, and prints the key scalars the paper's
// qualitative claims rest on.
//
// Usage:
//
//	memca-bench                # regenerate everything into out/
//	memca-bench -fig 2         # only Figure 2
//	memca-bench -fig table1    # only Table I
//	memca-bench -quick         # ~4x shorter horizons (smoke run)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"memca/internal/figures"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memca-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	if worker, err := maybeRunWorker(); worker {
		return err
	}
	var (
		fig         = flag.String("fig", "all", "figure to regenerate: 2, 3, 6, 7, 8, 9, 10, 11, table1, ablations, defense, evasion, detectors, crowd, attribution, planner, all")
		out         = flag.String("out", "out", "output directory for CSV artifacts")
		quick       = flag.Bool("quick", false, "shorter horizons for a smoke run")
		seed        = flag.Int64("seed", 1, "simulation seed")
		parallel    = flag.Int("parallel", runtime.NumCPU(), "worker count for a driver's independent runs (1 = serial; artifacts are identical either way)")
		shards      = flag.Int("shards", 1, "run -fig sharded over this many worker subprocesses, for every figure with a dist driver (artifacts are byte-identical to -shards 1)")
		manifestOut = flag.String("manifest-out", "", "write dsweep manifests for -fig into this directory and exit (run them with memca-sweep)")
	)
	flag.Parse()

	opts := figures.Options{OutDir: *out, Quick: *quick, Seed: *seed, Parallel: *parallel}
	if *shards > 1 || *manifestOut != "" {
		return runDistributedBench(*fig, opts, *shards, *manifestOut)
	}
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "    run %d/%d\n", done, total)
	}
	targets := map[string]func(figures.Options) error{
		"2":           runFig2,
		"3":           runFig3,
		"6":           runFig6,
		"7":           runFig7,
		"8":           runFig8,
		"9":           runFig9,
		"10":          runFig10,
		"11":          runFig11,
		"table1":      runTable1,
		"ablations":   runAblations,
		"defense":     runDefense,
		"evasion":     runEvasion,
		"detectors":   runDetectors,
		"crowd":       runFlashCrowd,
		"attribution": runAttribution,
		"planner":     runPlanner,
	}
	order := []string{"table1", "3", "6", "7", "2", "9", "10", "11", "8", "ablations", "defense", "evasion", "detectors", "crowd", "attribution", "planner"}

	if *fig != "all" {
		f, ok := targets[*fig]
		if !ok {
			return fmt.Errorf("unknown -fig %q", *fig)
		}
		return timed(*fig, f, opts)
	}
	for _, name := range order {
		if err := timed(name, targets[name], opts); err != nil {
			return err
		}
	}
	fmt.Printf("\nall artifacts written under %s/\n", *out)
	return nil
}

func timed(name string, f func(figures.Options) error, opts figures.Options) error {
	fmt.Printf("=== %s ===\n", label(name))
	start := time.Now()
	if err := f(opts); err != nil {
		return fmt.Errorf("%s: %w", label(name), err)
	}
	fmt.Printf("    (%v)\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func label(name string) string {
	switch name {
	case "table1":
		return "Table I"
	case "ablations":
		return "Ablations"
	case "defense":
		return "Defense evaluation"
	case "evasion":
		return "Jitter evasion"
	case "detectors":
		return "Detector comparison"
	case "crowd":
		return "Flash-crowd contrast"
	case "attribution":
		return "Critical-path attribution"
	case "planner":
		return "Planner validation"
	default:
		return "Figure " + name
	}
}

func runFig2(opts figures.Options) error {
	res, err := figures.Fig2(opts)
	if err != nil {
		return err
	}
	for env, p95 := range res.ClientP95 {
		fmt.Printf("  %-14s client p95 = %-8v p98 = %v\n", env, p95.Round(time.Millisecond), res.ClientP98[env].Round(time.Millisecond))
	}
	fmt.Printf("  per-tier amplification ordering held: %v\n", res.AmplificationOK)
	return nil
}

func runFig3(opts figures.Options) error {
	res, err := figures.Fig3(opts)
	if err != nil {
		return err
	}
	for key, curve := range res.Curves {
		fmt.Printf("  %-32s %.0f -> %.0f MB/s per VM (1 -> 6 VMs)\n", key, curve[0], curve[len(curve)-1])
	}
	fmt.Printf("  single VM saturates bus: %v (paper: no)\n", res.SingleVMSaturates)
	fmt.Printf("  lock stronger than saturation everywhere: %v (paper: yes)\n", res.LockBelowSaturation)
	return nil
}

func runFig6(opts figures.Options) error {
	res, err := figures.Fig6(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  tandem: mysql max occupancy %.0f, upstream max %.0f\n", res.TandemMySQLMax, res.TandemUpstreamMax)
	fmt.Printf("  rpc: all queues filled %v, fill order mysql %v -> tomcat %v -> apache %v\n",
		res.RPCFilled,
		res.RPCFillOrder[2].Round(time.Millisecond),
		res.RPCFillOrder[1].Round(time.Millisecond),
		res.RPCFillOrder[0].Round(time.Millisecond))
	return nil
}

func runFig7(opts figures.Options) error {
	res, err := figures.Fig7(opts)
	if err != nil {
		return err
	}
	for _, c := range []figures.Fig7Case{figures.Fig7Tandem, figures.Fig7InfiniteFront, figures.Fig7Finite} {
		r := res.Cases[c]
		fmt.Printf("  %-15s client p99 = %-9v mysql p99 = %-9v spread = %-9v drops = %d\n",
			c, r.ClientP99.Round(time.Millisecond), r.MySQLP99.Round(time.Millisecond),
			r.SpreadP99.Round(time.Millisecond), r.Drops)
	}
	return nil
}

func runFig8(opts figures.Options) error {
	res, err := figures.Fig8(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  %d decisions, goal reached at t=%v, sustained %.0f%%, final params R=%.2f L=%v I=%v\n",
		res.Decisions, res.TimeToGoal.Round(time.Second), res.SustainedFraction*100,
		res.FinalParams.Intensity, res.FinalParams.BurstLength.Round(time.Millisecond),
		res.FinalParams.Interval.Round(time.Millisecond))
	return nil
}

func runFig9(opts figures.Options) error {
	res, err := figures.Fig9(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  %d bursts in the 8s window; mysql transiently saturated: %v; queues propagated: %v; worst client RT %v\n",
		res.BurstsInWindow, res.MySQLSaturated, res.QueuePropagated, res.MaxClientRT.Round(time.Millisecond))
	return nil
}

func runFig10(opts figures.Options) error {
	res, err := figures.Fig10(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  cpu max by granularity:")
	for g, max := range res.MaxByGranularity {
		fmt.Printf(" %v=%.0f%%", g, max*100)
	}
	fmt.Printf("\n  1-min mean %.0f%%; auto scaling triggered: %v (live events: %d)\n",
		res.MeanCoarse*100, res.AutoScalingTriggered, res.ScaleEventsLive)
	return nil
}

func runFig11(opts figures.Options) error {
	res, err := figures.Fig11(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  LLC-miss periodicity at burst interval: saturation %.2f vs lock %.2f\n",
		res.SaturationPeriodicity, res.LockPeriodicity)
	fmt.Printf("  locking adversary's own peak miss rate: %.0f misses/s (invisible)\n", res.LockAdversaryMaxMisses)
	return nil
}

func runAblations(opts figures.Options) error {
	sweeps := []func(figures.Options) (*figures.AblationResult, error){
		figures.AblationBurstLength,
		figures.AblationInterval,
		figures.AblationMechanisms,
		figures.AblationAdversaries,
		figures.AblationServiceDistribution,
		figures.AblationLoad,
	}
	for _, sweep := range sweeps {
		res, err := sweep(opts)
		if err != nil {
			return err
		}
		fmt.Printf("  [%s]\n", res.Name)
		for _, p := range res.Points {
			fmt.Printf("    %-16s p95=%-9v p99=%-9v coarse-util=%4.0f%%  drops=%d\n",
				p.Label, p.ClientP95.Round(time.Millisecond), p.ClientP99.Round(time.Millisecond),
				p.CoarseUtil*100, p.Drops)
		}
	}
	return nil
}

func runDefense(opts figures.Options) error {
	res, err := figures.DefenseEvaluation(opts)
	if err != nil {
		return err
	}
	for _, p := range res.Matrix {
		fmt.Printf("  %-15s + %-22s p95=%-9v D=%.3f mitigated=%v\n",
			p.Attack, p.Defense, p.ClientP95.Round(time.Millisecond), p.DegradationD, p.Mitigated)
	}
	fmt.Printf("  50ms detector: %d episodes, attack classified: %v (overhead %.3f%% of a core)\n",
		res.DetectorEpisodes, res.DetectorVerdict.PulsatingAttack, res.DetectorOverhead*100)
	fmt.Printf("  1s detector: %d episodes (the stealth window)\n", res.CoarseDetectorEpisodes)
	return nil
}

func runEvasion(opts figures.Options) error {
	res, err := figures.JitterEvasion(opts)
	if err != nil {
		return err
	}
	for _, p := range res.Points {
		fmt.Printf("  jitter=%.2f  p95=%-9v periodicity=%.2f  gap-CV=%.2f  classified=%v\n",
			p.Jitter, p.ClientP95.Round(time.Millisecond), p.Periodicity, p.IntervalCV, p.Classified)
	}
	return nil
}

func runDetectors(opts figures.Options) error {
	res, err := figures.DetectorComparison(opts)
	if err != nil {
		return err
	}
	for _, c := range res.Cells {
		fmt.Printf("  %-12s %-10s @ %-5v alarms=%d\n", c.Scenario, c.Detector, c.Granularity, c.Alarms)
	}
	fmt.Printf("  attribution threshold (ROC-tuned): retrans share > %.4f (min %d traces/window)\n",
		res.Attribution.ShareThreshold, res.Attribution.MinCount)
	for _, tn := range res.Tuning {
		fmt.Printf("  tuned CPU @ %-5v threshold=%.2f ewma(K=%.0f,a=%.1f) cusum(target=%.2f,k=%.2f,h=%.1f)\n",
			tn.Granularity, tn.CPU.Threshold.Threshold, tn.CPU.EWMA.K, tn.CPU.EWMA.Alpha,
			tn.CPU.CUSUM.Target, tn.CPU.CUSUM.Slack, tn.CPU.CUSUM.DecisionThreshold)
	}
	return nil
}

func runFlashCrowd(opts figures.Options) error {
	res, err := figures.FlashCrowd(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  peak 1-min CPU %.0f%%, %d scale events; p95 %v during surge -> %v after absorption\n",
		res.PeakCoarseUtil*100, res.ScaleEvents,
		res.CrowdP95.Round(time.Millisecond), res.AbsorbedP95.Round(time.Millisecond))
	return nil
}

func runTable1(opts figures.Options) error {
	res, err := figures.Table1(opts)
	if err != nil {
		return err
	}
	p := res.Prediction
	fmt.Printf("  D=0.1, L=500ms, I=2s: fill %v, damage %v, drain %v, P_MB %v, rho %.4f\n",
		p.TotalFill.Round(time.Millisecond), p.DamagePeriod.Round(time.Millisecond),
		p.DrainTime.Round(time.Millisecond), p.Millibottleneck.Round(time.Millisecond), p.Impact)
	if res.PlannedOK {
		a := res.PlannedAttack
		fmt.Printf("  planned weakest attack for rho>=0.05, P_MB<1s: D=%.2f L=%v I=%v\n",
			a.D, a.L.Round(time.Millisecond), a.I.Round(time.Millisecond))
	}
	return nil
}

func runAttribution(opts figures.Options) error {
	res, err := figures.FigAttribution(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  attacked p99 %v (baseline %v)\n",
		res.AttackedP99.Round(time.Millisecond), res.BaselineP99.Round(time.Millisecond))
	fmt.Printf("  attacked >=p99 tail: wait share %.1f%% (retransmission %.1f%%) over %d traces\n",
		res.AttackedWaitShare*100, res.AttackedRetransShare*100, res.AttackedTailTraces)
	fmt.Printf("  baseline >=p99 tail: service share %.1f%%\n", res.BaselineServiceShare*100)
	fmt.Printf("  monitoring blindness (50ms vs 1s peak): %.2fx attacked, %.2fx baseline\n",
		res.AttackedBlindness, res.BaselineBlindness)
	return nil
}

func runPlanner(opts figures.Options) error {
	res, err := figures.FigPlanner(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  %d cells x %d runs: sized OK %v (worst p99 %v), witnesses violate %v (best p99 %v)\n",
		res.Cells, res.Runs/res.Cells, res.AllSizedOK, res.MaxSizedP99.Round(time.Millisecond),
		res.AllSmallerViolate, res.MinSmallerP99.Round(time.Millisecond))
	return nil
}
