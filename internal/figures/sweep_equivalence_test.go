package figures

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"memca/internal/dsweep"
	"memca/internal/stats"
	"memca/internal/sweep"
)

// equivalenceWorkers are the worker counts the parallel-vs-serial
// contract is pinned at: the serial path, oversubscription, and a
// power-of-two in between.
var equivalenceWorkers = []int{1, 4, 8}

// equivalenceShards cover the serial case, the power-of-two ladder, and
// more shards than some drivers have jobs (empty shards must merge too).
var equivalenceShards = []int{1, 2, 4, 8}

// shardedDrivers additionally run sharded and through a kill/resume: the
// headline figure, one ablation sweep, the planner validation (the
// largest job grid), and the detector grid (the richest record type).
var shardedDrivers = []string{"fig2", "ablation-interval", "planner", "detectors"}

// equivalenceFigure is the exported figure function a dist driver backs.
type equivalenceFigure struct {
	name string
	run  func(Options) (any, error)
}

func figureFunc[T any](name string, f func(Options) (T, error)) equivalenceFigure {
	return equivalenceFigure{name, func(o Options) (any, error) { return f(o) }}
}

// driverFigures maps every registered dist driver to its exported figure
// function; subtests are named after the function.
var driverFigures = map[string]equivalenceFigure{
	"fig2":                          figureFunc("Fig2", Fig2),
	"fig3":                          figureFunc("Fig3", Fig3),
	"fig6":                          figureFunc("Fig6", Fig6),
	"fig7":                          figureFunc("Fig7", Fig7),
	"ablation-burst-length":         figureFunc("AblationBurstLength", AblationBurstLength),
	"ablation-interval":             figureFunc("AblationInterval", AblationInterval),
	"ablation-mechanisms":           figureFunc("AblationMechanisms", AblationMechanisms),
	"ablation-adversaries":          figureFunc("AblationAdversaries", AblationAdversaries),
	"ablation-load":                 figureFunc("AblationLoad", AblationLoad),
	"ablation-service-distribution": figureFunc("AblationServiceDistribution", AblationServiceDistribution),
	"planner":                       figureFunc("FigPlanner", FigPlanner),
	"evasion":                       figureFunc("JitterEvasion", JitterEvasion),
	"defense":                       figureFunc("DefenseEvaluation", DefenseEvaluation),
	"detectors":                     figureFunc("DetectorComparison", DetectorComparison),
	"crowd":                         figureFunc("FlashCrowd", FlashCrowd),
	"attribution":                   figureFunc("FigAttribution", FigAttribution),
}

func fingerprint(res any) string { return fmt.Sprintf("%#v", res) }

// readArtifacts returns every CSV under dir keyed by relative path.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatalf("reading artifacts under %s: %v", dir, err)
	}
	return files
}

// outputs is one run's observable result: the scalar fingerprint (fmt
// prints map keys sorted, so equal fingerprints mean equal results) and
// the CSV artifacts it wrote.
type outputs struct {
	print string
	files map[string][]byte
}

// requireEqual fails unless got matches the reference run exactly.
func (ref outputs) requireEqual(t *testing.T, what string, got outputs) {
	t.Helper()
	if got.print != ref.print {
		t.Errorf("%s: scalars differ from the serial local run:\n%s\nvs\n%s", what, got.print, ref.print)
	}
	if len(got.files) != len(ref.files) {
		t.Errorf("%s wrote %d artifacts, the serial local run %d", what, len(got.files), len(ref.files))
	}
	for name, want := range ref.files {
		if data, ok := got.files[name]; !ok {
			t.Errorf("%s did not write %s", what, name)
		} else if !bytes.Equal(data, want) {
			t.Errorf("%s: artifact %s differs from the serial local run", what, name)
		}
	}
}

// TestSweepWorkerEquivalence pins the one job model's contract for every
// registered driver: the in-process path produces identical scalars and
// byte-identical CSV artifacts at every worker count, and so does the
// sharding adapter, whose records all pass through encode and decode.
// A regression here means parallelism, the record codec, or a job's
// purity leaked into the results.
func TestSweepWorkerEquivalence(t *testing.T) {
	for _, name := range DistDrivers() {
		fig, ok := driverFigures[name]
		if !ok {
			t.Errorf("dist driver %q has no figure function in driverFigures", name)
			continue
		}
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			var ref outputs
			for wi, workers := range equivalenceWorkers {
				dir := t.TempDir()
				res, err := fig.run(Options{OutDir: dir, Quick: true, Seed: 7, Parallel: workers})
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				got := outputs{fingerprint(res), readArtifacts(t, dir)}
				if wi == 0 {
					if len(got.files) == 0 {
						t.Fatal("serial local run wrote no artifacts")
					}
					ref = got
					continue
				}
				ref.requireEqual(t, fmt.Sprintf("%d workers", workers), got)
			}

			_, got := runEncoded(t, name)
			ref.requireEqual(t, "encoded records", got)
		})
	}
}

// TestDistShardEquivalence pins the fabric's core contract at the figure
// level: for every shard count, the merged artifact is byte-identical to
// the canonical encoding of an in-process run, and the finalized scalars
// and CSV artifacts are identical too. A regression here means the shard
// plan, the record codec, or a driver's job purity leaked into results.
func TestDistShardEquivalence(t *testing.T) {
	for _, name := range shardedDrivers {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			merged, ref := encodedReference(t, name)
			for _, shards := range equivalenceShards {
				requireSharded(t, name, shards, merged, ref)
			}
		})
	}
}

// TestDistKillResumeEquivalence kills one worker mid-shard, resumes it,
// and requires the final merged artifact and CSVs to be byte-identical
// to an in-process run: the crash must leave no trace in the results.
func TestDistKillResumeEquivalence(t *testing.T) {
	for _, name := range shardedDrivers {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			merged, ref := encodedReference(t, name)
			requireKillResume(t, name, merged, ref)
		})
	}
}

// encodedRef is one driver's runEncoded result, computed once and shared
// by the shard and kill/resume tests.
type encodedRef struct {
	once   sync.Once
	merged []byte
	out    outputs
	ok     bool
}

var (
	encodedRefsMu sync.Mutex
	encodedRefs   = map[string]*encodedRef{}
)

// encodedReference returns the driver's cached runEncoded result, running
// it on first use.
func encodedReference(t *testing.T, name string) ([]byte, outputs) {
	t.Helper()
	encodedRefsMu.Lock()
	r, ok := encodedRefs[name]
	if !ok {
		r = &encodedRef{}
		encodedRefs[name] = r
	}
	encodedRefsMu.Unlock()
	r.once.Do(func() {
		r.merged, r.out = runEncoded(t, name)
		r.ok = true
	})
	if !r.ok {
		t.Fatalf("%s: in-process reference run failed", name)
	}
	return r.merged, r.out
}

// runEncoded runs a driver's DistRun in process over the sweep engine,
// one fresh arena per job, and finalizes the encoded records. It returns
// their canonical merged encoding and the finalized outputs, which
// TestSweepWorkerEquivalence proves equal to the local path's.
func runEncoded(t *testing.T, name string) ([]byte, outputs) {
	t.Helper()
	dir := t.TempDir()
	o := Options{OutDir: dir, Quick: true, Seed: 7}
	d, ok := LookupDist(name)
	if !ok {
		t.Fatalf("no dist driver %q", name)
	}
	r, err := d.New(o)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := sweep.Run(context.Background(), sweep.Options{}, r.Jobs, func(_ context.Context, i int) ([]byte, error) {
		a := stats.GetArena()
		defer stats.PutArena(a)
		return r.Job(a, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := r.Finalize(payloads)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.EncodeRecords(payloads), outputs{fingerprint(res), readArtifacts(t, dir)}
}

// writeDistManifest builds and persists a manifest for the driver into a
// fresh temp dir, returning the stamped (hashed) manifest.
func writeDistManifest(t *testing.T, name string, o Options, shards int) *dsweep.Manifest {
	t.Helper()
	dir := t.TempDir()
	m, err := NewManifest(name, o, shards, filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dsweep.WriteManifest(filepath.Join(dir, "manifest.json"), m); err != nil {
		t.Fatal(err)
	}
	return m
}

// finishDist merges a manifest's shards and finalizes the run, requiring
// the merged artifact and the outputs to match the references.
func finishDist(t *testing.T, what string, m *dsweep.Manifest, merged []byte, ref outputs) {
	t.Helper()
	if err := dsweep.Merge(m); err != nil {
		t.Fatalf("%s: merge: %v", what, err)
	}
	data, err := os.ReadFile(m.MergedPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, merged) {
		t.Errorf("%s: merged artifact differs from the in-process records (%d vs %d bytes)", what, len(data), len(merged))
	}
	res, _, err := RunDistributed(m)
	if err != nil {
		t.Fatalf("%s: finalize: %v", what, err)
	}
	ref.requireEqual(t, what, outputs{fingerprint(res), readArtifacts(t, m.OutDir)})
}

// requireSharded runs every shard of a fresh manifest concurrently (each
// an independent worker with its own artifact file and arena) and
// requires the merged, finalized run to match the references.
func requireSharded(t *testing.T, name string, shards int, merged []byte, ref outputs) {
	t.Helper()
	m := writeDistManifest(t, name, Options{OutDir: t.TempDir(), Quick: true, Seed: 7}, shards)
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for s := range errs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = RunShard(context.Background(), m, s, dsweep.ShardOptions{})
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("%d shards: shard %d: %v", shards, s, err)
		}
	}
	finishDist(t, fmt.Sprintf("%d shards", shards), m, merged, ref)
}

// requireKillResume kills one worker mid-shard (the deterministic
// injected crash standing in for kill -9), verifies the partial state
// refuses to merge, resumes the shard, and requires the final run to
// match the references — the crash must leave no trace in the results.
func requireKillResume(t *testing.T, name string, merged []byte, ref outputs) {
	t.Helper()
	const shards = 3
	m := writeDistManifest(t, name, Options{OutDir: t.TempDir(), Quick: true, Seed: 7}, shards)

	// Kill shard 0 partway: after one record when it owns several jobs,
	// right after the durable header when it owns one.
	budget := 0
	if sweep.ShardSize(m.Jobs, m.Shards, 0) > 1 {
		budget = 1
	}
	err := RunShard(context.Background(), m, 0, dsweep.ShardOptions{InjectCrash: true, MaxRecords: budget})
	if !errors.Is(err, dsweep.ErrCrashInjected) {
		t.Fatalf("crashing run returned %v, want ErrCrashInjected", err)
	}
	for s := 1; s < shards; s++ {
		if err := RunShard(context.Background(), m, s, dsweep.ShardOptions{}); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	if err := dsweep.Merge(m); err == nil {
		t.Fatal("merge succeeded with a crashed, incomplete shard")
	}

	// Resume: the worker picks up from the durable checkpoint.
	recovered := -1
	err = RunShard(context.Background(), m, 0, dsweep.ShardOptions{
		Progress: func(done, total int) {
			if recovered < 0 {
				recovered = done
			}
		},
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if budget > 0 && recovered < budget {
		t.Errorf("resume re-ran checkpointed jobs: first progress %d, want >= %d", recovered, budget)
	}
	finishDist(t, "kill+resume", m, merged, ref)
}

// TestSweepProgressTotals pins the progress hook: one callback per run,
// ending exactly at (total, total), for serial and parallel execution.
func TestSweepProgressTotals(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls, lastDone, lastTotal int
		opts := Options{Quick: true, Seed: 7, Parallel: workers}
		opts.Progress = func(done, total int) {
			calls++
			lastDone, lastTotal = done, total
		}
		if _, err := Fig3(opts); err != nil {
			t.Fatalf("Fig3 with %d workers: %v", workers, err)
		}
		if calls == 0 || lastDone != lastTotal {
			t.Errorf("with %d workers: %d progress calls, final %d/%d; want final done == total",
				workers, calls, lastDone, lastTotal)
		}
	}
}
