// Command memca-lint runs the project's custom static-analysis suite over
// the given go-list package patterns (default ./...). It enforces the
// invariants the paper reproduction rests on — sim determinism, the
// simulated/wall clock boundary, epsilon float comparison, no silently
// dropped errors, the //memca:hotpath allocation discipline, and the
// atomic-access discipline — and exits non-zero on any finding so it can
// gate CI. Zero-allocation contracts are not checked here: the
// AllocsPerRun tests and the benchjson gate enforce them at run time.
//
// Usage:
//
//	go run ./cmd/memca-lint ./...
//	go run ./cmd/memca-lint -analyzers simdeterminism,clockdiscipline ./internal/...
//	go run ./cmd/memca-lint -json ./...            # JSON Lines output
//	go run ./cmd/memca-lint -github ./...          # GitHub annotations
//	go run ./cmd/memca-lint -list                  # list the analyzers
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"memca/internal/lint"
)

func main() {
	var (
		names   = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list    = flag.Bool("list", false, "list available analyzers and exit")
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON Lines (file, line, col, analyzer, message)")
		github  = flag.Bool("github", false, "emit GitHub Actions ::error annotations alongside the plain findings")
	)
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	if *names != "" {
		want := make(map[string]bool)
		for _, n := range strings.Split(*names, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "memca-lint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fatal(err)
	}

	diags := lint.Run(pkgs, analyzers, lint.DefaultConfig())

	switch {
	case *jsonOut:
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fatal(err)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *github {
		if err := lint.WriteGitHubAnnotations(os.Stdout, diags); err != nil {
			fatal(err)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "memca-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "memca-lint: %v\n", err)
	os.Exit(2)
}
