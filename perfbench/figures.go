package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"memca/internal/figures"
	"memca/internal/stats"
)

// figureTarget is one memca-bench target, called in-process.
type figureTarget struct {
	name string
	run  func(figures.Options) (any, error)
}

func target[T any](name string, f func(figures.Options) (T, error)) figureTarget {
	return figureTarget{name, func(o figures.Options) (any, error) { return f(o) }}
}

// figureTargets are memca-bench's targets in its order.
var figureTargets = []figureTarget{
	target("table1", figures.Table1),
	target("fig3", figures.Fig3),
	target("fig6", figures.Fig6),
	target("fig7", figures.Fig7),
	target("fig2", figures.Fig2),
	target("fig9", figures.Fig9),
	target("fig10", figures.Fig10),
	target("fig11", figures.Fig11),
	target("fig8", figures.Fig8),
	target("ablations", runAblations),
	target("defense", figures.DefenseEvaluation),
	target("evasion", figures.JitterEvasion),
	target("detectors", figures.DetectorComparison),
	target("crowd", figures.FlashCrowd),
	target("attribution", figures.FigAttribution),
	target("planner", figures.FigPlanner),
}

func runAblations(o figures.Options) ([]*figures.AblationResult, error) {
	var out []*figures.AblationResult
	for _, sweep := range []func(figures.Options) (*figures.AblationResult, error){
		figures.AblationBurstLength,
		figures.AblationInterval,
		figures.AblationMechanisms,
		figures.AblationAdversaries,
		figures.AblationServiceDistribution,
		figures.AblationLoad,
	} {
		r, err := sweep(o)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// figMinPasses is the fewest suite passes a figures-quick run makes:
// enough figure calls for the tail percentile to have ten beyond it.
var figMinPasses = (minSamplesFor(tailPct) + len(figureTargets) - 1) / len(figureTargets)

// distDrivers are the exported distributable drivers figures-quick
// prepares: Fig2, every ablation sweep, and the planner.
func distDrivers() []string {
	var out []string
	for _, name := range figures.DistDrivers() {
		if name == "fig2" || name == "planner" || strings.HasPrefix(name, "ablation-") {
			out = append(out, name)
		}
	}
	return out
}

func runFiguresQuick(e *env) (*outcome, error) {
	base := figures.Options{Quick: true, Seed: e.seed, Parallel: e.nproc}
	res := &outcome{config: fmt.Sprintf("figures-quick %+v targets=%d dist=%v", base, len(figureTargets), distDrivers())}
	var (
		setup, setupCPU []float64
		passS, cpuS     []float64
		peaks           []float64
		callsCPU        []float64
		rounds          roundTimes
		perPass         runtimeCounters
		byTarget        = map[string][]float64{}
		allocs          = map[string][]float64{}
		jobs            = map[string]int64{}
	)
	heap := startHeapPeak()
	defer heap.stop()
	start := time.Now()
	for i := 0; e.more(start, i, figMinPasses); i++ {
		rec := e.recFor(i)
		opts := base
		opts.OutDir = filepath.Join(e.scratch, fmt.Sprintf("pass-%d", i))
		runtime.GC() // start each pass from a collected heap
		heap.take()
		cpu0 := cpuTime()
		d, err := rec.timed("bench", "setup", noSpan, int64(i), func(id spanID) error {
			return prepareFigures(rec, id, int64(i), opts)
		})
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		setupCPU = append(setupCPU, cpuTime()-cpu0)

		c0 := readCounters()
		pass, _ := rec.timed("bench", "round", noSpan, int64(i), func(parent spanID) error {
			for _, t := range figureTargets {
				var n atomic.Int64
				opts.Progress = func(int, int) { n.Add(1) }
				var result any
				a0 := readCounters()
				d, err := rec.timed("figures", "figures."+t.name, parent, int64(i), func(spanID) error {
					var err error
					result, err = t.run(opts)
					return err
				})
				used := readCounters().sub(a0)
				callsCPU = append(callsCPU, used.cpuSec)
				byTarget[t.name] = append(byTarget[t.name], d.Seconds())
				allocs[t.name] = append(allocs[t.name], float64(used.allocs))
				jobs[t.name] = n.Load()
				res.attempted++
				// A figure that errors is a failed operation, like one
				// whose verdict does not hold; the pass goes on.
				if err != nil {
					res.fail("%s: %v", t.name, err)
					continue
				}
				res.check(checkFigure(result))
			}
			return nil
		})
		peaks = append(peaks, heap.take())
		used := readCounters().sub(c0)
		perPass = perPass.add(used)
		cpuS = append(cpuS, used.cpuSec)
		passS = append(passS, pass.Seconds())
		rounds.add(rec, pass)

		_, err = rec.timed("bench", "check", noSpan, int64(i), func(spanID) error {
			_, digest, err := hashDir(opts.OutDir)
			if err != nil {
				return err
			}
			if i == 0 {
				res.digest = digest
			} else if digest != res.digest {
				res.fail("pass %d CSV digest %s differs from pass 0's %s at the same seed", i, digest, res.digest)
			}
			return os.RemoveAll(opts.OutDir)
		})
		if err != nil {
			return nil, err
		}
	}

	if !e.trace {
		tail, err := tailPercentile(callsCPU, tailPct)
		if err != nil {
			return nil, err
		}
		res.metrics = map[string]float64{
			"setup_s":      median(setupCPU),
			"run_s":        median(cpuS),
			"heap_peak_mb": median(peaks),
			"ok_share":     1 - ratio(float64(res.failed), float64(res.attempted)),
			"ops_per_s":    float64(len(figureTargets)) / median(cpuS),
			"op_p50_ms":    median(callsCPU) * 1e3,
			"op_tail_ms":   tail * 1e3,
		}
		return res, nil
	}
	n := float64(len(passS))
	res.metrics = map[string]float64{
		"runtime.allocs":     float64(perPass.allocs) / n,
		"runtime.alloc_mb":   float64(perPass.bytes) / n / (1 << 20),
		"runtime.gc_cpu_s":   perPass.gcCPUSec / n,
		"bench.round_wall_s": median(passS),
		"bench.round_cpu_s":  median(cpuS),
		"bench.setup_wall_s": median(setup),
	}
	for _, t := range figureTargets {
		res.metrics["figures."+t.name+".s"] = median(byTarget[t.name])
		res.metrics["figures."+t.name+".allocs"] = median(allocs[t.name])
		res.metrics["figures."+t.name+".jobs"] = float64(jobs[t.name])
	}
	if err := driveDist(e, res); err != nil {
		return nil, err
	}
	addSpanMetrics(res.metrics, e.spans.snapshot(), rounds)
	return res, nil
}

// prepareFigures is a pass's set-up: the output directory, and each
// distributable driver's preparation step (New), the work the program
// itself calls set-up — the planner's sizing pass, say.
func prepareFigures(rec *spanRecorder, parent spanID, run int64, o figures.Options) error {
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	for _, name := range distDrivers() {
		d, _ := figures.LookupDist(name)
		if _, err := rec.timed("figures", "figures.DistDriver.New", parent, run, func(spanID) error {
			_, err := d.New(figures.Options{Quick: o.Quick, Seed: o.Seed})
			return err
		}); err != nil {
			return fmt.Errorf("preparing %s: %w", name, err)
		}
	}
	return nil
}

// driveDist runs Fig2, the ablations and the planner once more through
// the exported driver interface — New, then each Job serially on one
// arena, then Finalize — to split the figure job path into its stages.
// Each driver's finalized result is checked like the figure call's.
func driveDist(e *env, res *outcome) error {
	rec := e.spans
	root := rec.start("figures.dist", "dist", noSpan, 0)
	defer rec.end(root)
	var (
		newS, jobS, finS    time.Duration
		jobCount            int
		recordBytes, allocs uint64
		owned, spill        int64
	)
	// driveOne runs one driver through its stages and returns its result.
	driveOne := func(name string) (any, error) {
		d, _ := figures.LookupDist(name)
		o := figures.Options{OutDir: filepath.Join(e.scratch, "dist", name), Quick: true, Seed: e.seed, Parallel: 1}
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return nil, err
		}
		var r *figures.DistRun
		dur, err := rec.timed("figures.dist", "figures.DistDriver.New", root, 0, func(spanID) error {
			var err error
			r, err = d.New(o)
			return err
		})
		if err != nil {
			return nil, err
		}
		newS += dur
		a := stats.GetArena()
		defer stats.PutArena(a)
		payloads := make([][]byte, r.Jobs)
		for j := range payloads {
			c0 := readCounters()
			dur, err := rec.timed("figures.dist", "figures.DistRun.Job", root, int64(j), func(spanID) error {
				var err error
				payloads[j], err = r.Job(a, j)
				return err
			})
			allocs += readCounters().sub(c0).allocs
			if err != nil {
				return nil, fmt.Errorf("job %d: %w", j, err)
			}
			jobS += dur
			recordBytes += uint64(len(payloads[j]))
			owned = max(owned, a.Stats().OwnedBytes)
			a.Reset()
		}
		spill += a.Stats().SpillBytes
		jobCount += r.Jobs

		var result any
		dur, err = rec.timed("figures.dist", "figures.DistRun.Finalize", root, 0, func(spanID) error {
			var err error
			result, _, err = r.Finalize(payloads)
			return err
		})
		finS += dur
		return result, err
	}
	for _, name := range distDrivers() {
		res.attempted++
		result, err := driveOne(name)
		if err != nil {
			res.fail("dist %s: %v", name, err)
			continue
		}
		res.check(checkFigure(result))
	}
	jobs := float64(jobCount)
	res.metrics["figures.dist.new_s"] = newS.Seconds()
	res.metrics["figures.dist.job_s"] = ratio(jobS.Seconds(), jobs)
	res.metrics["figures.dist.finalize_s"] = finS.Seconds()
	res.metrics["figures.dist.record_bytes"] = float64(recordBytes)
	res.metrics["figures.dist.job_allocs"] = ratio(float64(allocs), jobs)
	res.metrics["stats.arena_owned_mb"] = float64(owned) / (1 << 20)
	res.metrics["stats.arena_spill_bytes"] = float64(spill)
	return os.RemoveAll(filepath.Join(e.scratch, "dist"))
}
