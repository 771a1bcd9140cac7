// Command perfbench is the repository's benchmark. It runs one named
// workload in-process for a fixed time, checks that the program's outputs
// are correct, and prints every metric declared in BENCHMARK.json by name
// and unit: the end-to-end metrics on an untraced run (-trace 0), the
// per-layer metrics on a run with layer spans (-trace 1). See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-attack-trace --seed 7 --seconds 25 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	// trace selects the layer-span run: every other round is traced into
	// spans, the rest run untraced for the overhead comparison.
	trace bool
	spans *spanRecorder
	// scratch is a private directory inside the checkout for outputs.
	scratch string
	// nproc bounds workers and connections.
	nproc int
}

// recFor returns the span recorder for round i, or nil when the round
// runs untraced.
func (e *env) recFor(i int) *spanRecorder {
	if e.trace && i%2 == 1 {
		return e.spans
	}
	return nil
}

// more reports whether a workload that started at start and has run
// rounds rounds goes on: until the measurement time is up and it has at
// least minRounds rounds — and in a layer-span run, two traced and two
// untraced.
func (e *env) more(start time.Time, rounds, minRounds int) bool {
	if e.trace {
		minRounds = max(minRounds, 4)
	}
	return rounds < minRounds || time.Since(start) < e.seconds
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// metrics holds end-to-end metrics in an untraced run and per-layer
	// metrics in a traced one.
	metrics map[string]float64
	// config describes the workload's inputs; its hash goes into the
	// provenance.
	config string
	// digest identifies the simulated outputs, so a change that alters
	// results shows up without being a gated metric.
	digest string
	// failures describes each failed correctness check.
	failures []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// check records a non-nil err as a failed check.
func (o *outcome) check(err error) {
	if err != nil {
		o.fail("%v", err)
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"figures-quick":    runFiguresQuick,
	"sim-attack-trace": runSimAttackTrace,
	"live-chain":       runLiveChain,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run: figures-quick, sim-attack-trace or live-chain")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 = layer-span run reporting per-layer metrics, 0 = end-to-end metrics")
		root    = flag.String("root", ".", "repository root (holds BENCHMARK.json)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	decl, err := readDeclaration(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	out := filepath.Join(*root, ".bench_build", "perfbench")
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return fmt.Errorf("making scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		scratch: scratch,
		nproc:   runtime.NumCPU(),
	}
	if e.trace {
		e.spans = newSpanRecorder()
	}
	res, err := w(e)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}

	want := decl.EndToEnd
	if e.trace {
		want = decl.PerLayer
		spansPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := e.spans.writeJSON(spansPath); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "spans written to", spansPath)
	}
	metrics, err := declared(want, res.metrics, !e.trace)
	if err != nil {
		return err
	}
	prov := provenance(*name, e, res)
	if prov["source_hash"], err = sourceHash(*root); err != nil {
		return err
	}
	provLine, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Println(string(provLine))
	last, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declaration struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// readDeclaration loads the metric names and units, so what is printed
// always matches what the benchmark declares.
func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric declaration: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared pairs every declared metric with its measured value. A
// measured name that is not declared is a benchmark bug. A per-layer
// metric the workload did not measure reads 0 — that layer did no work on
// it — but every end-to-end metric must be measured (required).
func declared(decls []metricDecl, got map[string]float64, required bool) (map[string]metricValue, error) {
	known := map[string]bool{}
	out := map[string]metricValue{}
	for _, d := range decls {
		known[d.Name] = true
		v, ok := got[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var stray []string
	for name := range got {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("measured metrics not declared in BENCHMARK.json: %s", strings.Join(stray, ", "))
	}
	return out, nil
}

// provenance records what produced a result.
func provenance(workload string, e *env, res *outcome) map[string]any {
	commit, modified := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	cfg := sha256.Sum256([]byte(res.config))
	return map[string]any{
		"workload":      workload,
		"seed":          e.seed,
		"trace":         e.trace,
		"commit":        commit,
		"modified":      modified,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         e.nproc,
		"cpu":           cpuModel(),
		"config_hash":   hex.EncodeToString(cfg[:8]),
		"output_hash":   res.digest,
		"failed_checks": res.failures,
	}
}

// sourceHash hashes the Go sources and module files under root, skipping
// hidden directories: the commit's content, for checkouts that carry no
// version-control metadata.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// cpuModel reads the CPU string from /proc/cpuinfo where there is one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
