package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"memca/internal/core"
	"memca/internal/telemetry"
)

// simMinRuns is the fewest simulations a sim-attack-trace run makes:
// enough for the tail percentile to have ten runs beyond it.
var simMinRuns = minSamplesFor(tailPct)

// rtoFloor is the first retransmission timeout: the attacked client p99
// at or above it is the paper's tail amplification.
const rtoFloor = time.Second

// simConfig is the sim-attack-trace input: the paper's default attack
// with request tracing and the detection feature windows on.
func simConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	spec := telemetry.DefaultSpec()
	spec.FeatureWindows = []time.Duration{50 * time.Millisecond, time.Second}
	spec.TailOver = time.Second
	cfg.Trace = &spec
	return cfg
}

// simCounts are one run's simulated outputs; identical across runs at a
// seed.
type simCounts struct {
	events, requests, drops, completed, retrans, failures uint64
	p99                                                   time.Duration
	exportBytes                                           int64
	exportHash                                            string
}

func (c simCounts) digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("events=%d requests=%d drops=%d p99=%d export_bytes=%d export=%s",
		c.events, c.requests, c.drops, c.p99, c.exportBytes, c.exportHash)))
	return hex.EncodeToString(h[:])
}

func runSimAttackTrace(e *env) (*outcome, error) {
	cfg := simConfig(e.seed)
	plain := cfg
	plain.Attack, plain.Trace = nil, nil // print what they point to, not where
	res := &outcome{config: fmt.Sprintf("sim-attack-trace %+v attack=%+v trace=%+v", plain, *cfg.Attack, *cfg.Trace)}
	var (
		setup, setupCPU []float64
		runS, cpuS      []float64
		peaks           []float64
		coreS, exportS  []float64
		rounds          roundTimes
		counts          simCounts
		perRun          runtimeCounters
	)
	heap := startHeapPeak()
	defer heap.stop()
	start := time.Now()
	for i := 0; e.more(start, i, simMinRuns); i++ {
		rec := e.recFor(i)
		dir := filepath.Join(e.scratch, fmt.Sprintf("sim-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC() // start each run from a collected heap
		heap.take()
		var x *core.Experiment
		cpu0 := cpuTime()
		d, err := rec.timed("core", "core.NewExperiment", noSpan, int64(i), func(spanID) error {
			var err error
			x, err = core.NewExperiment(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
		setupCPU = append(setupCPU, cpuTime()-cpu0)

		var rep *core.Report
		var runD, exportD time.Duration
		c0 := readCounters()
		round, err := rec.timed("bench", "round", noSpan, int64(i), func(parent spanID) error {
			var err error
			runD, err = rec.timed("core", "core.Experiment.Run", parent, int64(i), func(spanID) error {
				rep, err = x.Run()
				return err
			})
			if err != nil {
				return err
			}
			exportD, err = rec.timed("telemetry", "telemetry.export", parent, int64(i), func(id spanID) error {
				return exportTrace(rec, id, int64(i), x.Tracer(), dir)
			})
			return err
		})
		peaks = append(peaks, heap.take())
		used := readCounters().sub(c0)
		perRun = perRun.add(used)
		cpuS = append(cpuS, used.cpuSec)
		runS = append(runS, round.Seconds())
		coreS = append(coreS, runD.Seconds())
		exportS = append(exportS, exportD.Seconds())
		rounds.add(rec, round)

		res.attempted++
		if err != nil {
			res.fail("run %d: %v", i, err)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		var c simCounts
		_, err = rec.timed("bench", "check", noSpan, int64(i), func(spanID) error {
			var err error
			c, err = simOutputs(x, rep, dir)
			if err != nil {
				return err
			}
			failedBefore := res.failed
			res.check(checkConservation(conservationOf(x)))
			res.check(checkAttributions(x.Tracer().TailAttributions()))
			res.check(checkAttributions(x.Tracer().HeadAttributions()))
			res.check(checkAmplified(rep.Client.P99))
			if counts == (simCounts{}) {
				counts = c
			} else if c != counts {
				res.fail("run %d outputs differ from the first run's at the same seed: %+v vs %+v", i, c, counts)
			}
			if res.failed > failedBefore {
				// One operation failed, however many of its checks did.
				res.failed = failedBefore + 1
			}
			return os.RemoveAll(dir)
		})
		if err != nil {
			return nil, err
		}
	}
	res.digest = counts.digest()
	n := float64(len(runS))

	if !e.trace {
		p50 := median(cpuS)
		tail, err := tailPercentile(cpuS, tailPct)
		if err != nil {
			return nil, err
		}
		res.metrics = map[string]float64{
			"setup_s":      median(setupCPU),
			"run_s":        p50,
			"heap_peak_mb": median(peaks),
			"ok_share":     1 - ratio(float64(res.failed), float64(res.attempted)),
			"ops_per_s":    1 / p50,
			"op_p50_ms":    p50 * 1e3,
			"op_tail_ms":   tail * 1e3,
		}
		return res, nil
	}
	coreRun := median(coreS)
	res.metrics = map[string]float64{
		"core.new_experiment_s":    median(setup),
		"core.run_s":               coreRun,
		"sim.events":               float64(counts.events),
		"sim.ns_per_event":         ratio(coreRun*1e9, float64(counts.events)),
		"sim.events_per_request":   ratio(float64(counts.events), float64(counts.requests)),
		"telemetry.export_s":       median(exportS),
		"telemetry.export_bytes":   float64(counts.exportBytes),
		"queueing.completed":       float64(counts.completed),
		"queueing.drops":           float64(counts.drops),
		"queueing.drop_share":      ratio(float64(counts.drops), float64(counts.completed+counts.drops)),
		"workload.requests":        float64(counts.requests),
		"workload.retransmissions": float64(counts.retrans),
		"workload.failures":        float64(counts.failures),
		"runtime.allocs":           float64(perRun.allocs) / n,
		"runtime.alloc_mb":         float64(perRun.bytes) / n / (1 << 20),
		"runtime.gc_cpu_s":         perRun.gcCPUSec / n,
		"bench.round_wall_s":       median(runS),
		"bench.round_cpu_s":        median(cpuS),
		"bench.setup_wall_s":       median(setup),
	}
	addSpanMetrics(res.metrics, e.spans.snapshot(), rounds)
	return res, nil
}

// exportTrace writes the tracer's artifacts the way memca-trace does:
// Chrome trace, OTLP spans, tail and head attribution CSVs, and the
// per-window feature CSVs.
func exportTrace(rec *spanRecorder, parent spanID, run int64, tr *telemetry.Tracer, dir string) error {
	names := tr.TierNames()
	steps := []struct {
		name string
		f    func() error
	}{
		{"telemetry.Tracer.WriteChromeTrace", func() error { return tr.WriteChromeTrace(filepath.Join(dir, "trace.json")) }},
		{"telemetry.Tracer.WriteOTLP", func() error {
			return tr.WriteOTLP(filepath.Join(dir, "otlp.json"), telemetry.DefaultOTLPSpec())
		}},
		{"telemetry.WriteAttributionCSV", func() error {
			if err := telemetry.WriteAttributionCSV(filepath.Join(dir, "attribution.csv"), names, tr.TailAttributions()); err != nil {
				return err
			}
			return telemetry.WriteAttributionCSV(filepath.Join(dir, "attribution_head.csv"), names, tr.HeadAttributions())
		}},
		{"telemetry.WriteFeaturesCSV", func() error {
			for _, fs := range tr.Features() {
				path := filepath.Join(dir, fmt.Sprintf("features_%dms.csv", fs.Res.Milliseconds()))
				if err := telemetry.WriteFeaturesCSV(path, fs); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, s := range steps {
		if _, err := rec.timed("telemetry", s.name, parent, run, func(spanID) error { return s.f() }); err != nil {
			return err
		}
	}
	return nil
}

// simOutputs collects one run's simulated counts and hashes its exports.
func simOutputs(x *core.Experiment, rep *core.Report, dir string) (simCounts, error) {
	n, g := x.Network(), x.Generator()
	c := simCounts{
		events:    x.Engine().Processed(),
		requests:  g.Requests(),
		drops:     n.Drops(),
		completed: n.Completed(),
		retrans:   g.Retransmissions(),
		failures:  g.Failures(),
		p99:       rep.Client.P99,
	}
	var err error
	c.exportBytes, c.exportHash, err = hashDir(dir)
	return c, err
}

// hashDir hashes every regular file under dir, in name order, and totals
// their sizes.
func hashDir(dir string) (int64, string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return 0, "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	var total int64
	for _, p := range paths {
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return 0, "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		f, err := os.Open(p)
		if err != nil {
			return 0, "", err
		}
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return 0, "", fmt.Errorf("hashing %s: %w", p, err)
		}
		total += n
	}
	return total, hex.EncodeToString(h.Sum(nil)), nil
}
