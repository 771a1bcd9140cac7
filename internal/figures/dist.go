package figures

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sort"

	"memca/internal/dsweep"
	"memca/internal/stats"
	"memca/internal/sweep"
)

// job is one figure's fan-out: n independent runs, each a pure function
// of its index that records into the calling worker's stats arena and
// returns a typed record, plus a finalizer that turns the index-ordered
// records into the figure's result, CSV artifacts and one-line summary.
//
// The arena is reset as soon as run returns, so a record copies out
// whatever it keeps of arena-backed or live experiment state. Because
// the sharded path gob-encodes records, a record carries everything in
// exported, map-free fields (gob iterates maps in random order).
// finalize is the only stage that touches Options.OutDir.
type job[R any] struct {
	n        int
	run      func(a *stats.Arena, index int) (R, error)
	finalize func(records []R) (result any, summary string, err error)
}

// runFigure prepares a figure's job and runs it in process: the runs fan
// out over the sweep engine with one arena per worker, and the typed
// records go straight to finalize in index order, so every scalar and
// CSV artifact is byte-identical for any Options.Parallel.
func runFigure[T, R any](o Options, prepare func(Options) (*job[R], error)) (T, error) {
	var zero T
	j, err := prepare(o)
	if err != nil {
		return zero, err
	}
	opts := sweep.Options{Workers: o.Parallel, Progress: o.Progress}
	records, err := sweep.RunState(context.Background(), opts, j.n, stats.GetArena, stats.PutArena,
		func(_ context.Context, a *stats.Arena, i int) (R, error) {
			defer a.Reset()
			return j.run(a, i)
		})
	if err != nil {
		return zero, err
	}
	res, _, err := j.finalize(records)
	if err != nil {
		return zero, err
	}
	return res.(T), nil
}

// DistRun is one figure driver prepared for distributable execution: a
// fixed job count, a pure per-index job producing an encoded record, and
// a finalizer that turns the complete index-ordered record stream back
// into the figure's result and CSV artifacts.
//
// The split is what makes sharding safe: Job never writes files and is a
// pure function of (Options, index) — every worker computes identical
// bytes for an index — while Finalize is the only stage that touches
// OutDir, and runs exactly once on the merged stream. Job and Finalize
// wrap the same typed run and finalizer the in-process figure functions
// use, so a distributed run's outputs match theirs byte for byte.
type DistRun struct {
	// Jobs is the total job count; indices run 0..Jobs-1.
	Jobs int
	// Job computes the record for one index. The arena (never nil) backs
	// the run's stats and is reset by the caller after each job; the
	// returned bytes must not alias it.
	Job func(a *stats.Arena, index int) ([]byte, error)
	// Finalize consumes the records in index order, writes the figure's
	// CSV artifacts (honoring Options.OutDir), and returns the figure's
	// result plus a one-line human summary.
	Finalize func(payloads [][]byte) (result any, summary string, err error)
}

// DistDriver is a registered distributable figure driver.
type DistDriver struct {
	// Name is the manifest key (e.g. "fig2", "ablation-interval").
	Name string
	// New prepares a run for the given options. It is called once per
	// process — expensive pure setup (the planner's Solve pass, say)
	// happens here, not per job.
	New func(Options) (*DistRun, error)
}

// distRegistry holds every distributable driver, keyed by name. Drivers
// register in init functions next to their figure code.
var distRegistry = map[string]DistDriver{}

// register adds a figure's job to the registry as a distributable
// driver; duplicate names are a programming error. The driver's DistRun
// adapts the typed job to the byte-level fabric: the only place records
// are serialized.
func register[R any](name string, prepare func(Options) (*job[R], error)) {
	if _, dup := distRegistry[name]; dup {
		panic(fmt.Sprintf("figures: duplicate dist driver %q", name))
	}
	distRegistry[name] = DistDriver{Name: name, New: func(o Options) (*DistRun, error) {
		j, err := prepare(o)
		if err != nil {
			return nil, err
		}
		return &DistRun{
			Jobs: j.n,
			Job: func(a *stats.Arena, i int) ([]byte, error) {
				r, err := j.run(a, i)
				if err != nil {
					return nil, err
				}
				return encodeRecord(r)
			},
			Finalize: func(payloads [][]byte) (any, string, error) {
				records := make([]R, len(payloads))
				for i, data := range payloads {
					if err := decodeRecord(data, &records[i]); err != nil {
						return nil, "", err
					}
				}
				return j.finalize(records)
			},
		}, nil
	}}
}

// DistDrivers lists the registered driver names, sorted.
func DistDrivers() []string {
	names := make([]string, 0, len(distRegistry))
	for name := range distRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupDist finds a driver by name.
func LookupDist(name string) (DistDriver, bool) {
	d, ok := distRegistry[name]
	return d, ok
}

// encodeRecord gob-encodes one job record with a fresh encoder, so the
// bytes are a pure function of the value (no stream state). Record types
// must avoid maps — gob iterates them in random order.
func encodeRecord(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("figures: encoding job record: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeRecord is encodeRecord's inverse.
func decodeRecord(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("figures: decoding job record: %w", err)
	}
	return nil
}

// DistOptions reconstructs the figure Options a manifest's jobs run
// under. Only result-determining fields and the output directory travel
// through the manifest; parallelism and progress belong to the process
// running the jobs.
func DistOptions(m *dsweep.Manifest) Options {
	return Options{OutDir: m.OutDir, Quick: m.Quick, Seed: m.Seed}
}

// NewManifest builds (without writing) a manifest for a distributed run
// of the named driver, with the job count filled in by preparing the
// driver once.
func NewManifest(figure string, o Options, shards int, artifactDir string) (*dsweep.Manifest, error) {
	d, ok := LookupDist(figure)
	if !ok {
		return nil, fmt.Errorf("figures: no dist driver %q (have %v)", figure, DistDrivers())
	}
	r, err := d.New(o)
	if err != nil {
		return nil, err
	}
	return &dsweep.Manifest{
		Figure:      figure,
		Jobs:        r.Jobs,
		Shards:      shards,
		Seed:        o.Seed,
		Quick:       o.Quick,
		OutDir:      o.OutDir,
		ArtifactDir: artifactDir,
	}, nil
}

// newDistRun prepares the manifest's driver in this process and checks
// the manifest's job count against it, catching manifests generated by a
// build with a different grid.
func newDistRun(m *dsweep.Manifest) (*DistRun, error) {
	d, ok := LookupDist(m.Figure)
	if !ok {
		return nil, fmt.Errorf("figures: manifest names unknown dist driver %q (have %v)", m.Figure, DistDrivers())
	}
	r, err := d.New(DistOptions(m))
	if err != nil {
		return nil, err
	}
	if r.Jobs != m.Jobs {
		return nil, fmt.Errorf("figures: driver %q has %d jobs, manifest says %d — manifest from a different build?", m.Figure, r.Jobs, m.Jobs)
	}
	return r, nil
}

// RunShard runs one shard of a manifest in this process: the worker half
// of the fabric. It keeps the arena story intact — one arena for the
// whole worker process, reset after every job, so each job after the
// first records into warm slabs (the per-worker equivalent of the
// in-process runner). Resume is automatic via the shard artifact.
func RunShard(ctx context.Context, m *dsweep.Manifest, shard int, opts dsweep.ShardOptions) error {
	r, err := newDistRun(m)
	if err != nil {
		return err
	}
	a := stats.GetArena()
	defer stats.PutArena(a)
	return dsweep.RunShard(ctx, m, shard, func(_ context.Context, index int) ([]byte, error) {
		defer a.Reset()
		return r.Job(a, index)
	}, opts)
}

// RunDistributed finalizes a distributed run from its merged artifact:
// it decodes the index-ordered records, writes the figure's CSV
// artifacts into the manifest's OutDir, and returns the figure result
// with a one-line summary. Merge must have completed first.
func RunDistributed(m *dsweep.Manifest) (any, string, error) {
	r, err := newDistRun(m)
	if err != nil {
		return nil, "", err
	}
	payloads, err := dsweep.ReadMerged(m)
	if err != nil {
		return nil, "", err
	}
	return r.Finalize(payloads)
}
