package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"memca/internal/core"
	"memca/internal/stats"
)

// Fig2Result captures Figure 2: per-tier percentile response times of the
// 3-tier system under MemCA, in both cloud environments.
type Fig2Result struct {
	// ClientP95 and ClientP98 are the headline damage numbers per
	// environment.
	ClientP95 map[string]time.Duration
	ClientP98 map[string]time.Duration
	// AmplificationOK reports that the p95 ordering client >= apache >=
	// tomcat >= mysql held (within a small mix-dilution tolerance).
	AmplificationOK bool
}

// fig2Tier is one tier's slice of a fig2 job record.
type fig2Tier struct {
	Name  string
	Curve []time.Duration
	P95   time.Duration
}

// fig2Record is one environment's job record: everything Finalize needs
// to write the environment's CSV and judge amplification. No maps — gob
// iterates maps in random order, and records must encode to stable bytes.
type fig2Record struct {
	Env         string
	ClientP95   time.Duration
	ClientP98   time.Duration
	ClientCurve []time.Duration
	Tiers       []fig2Tier
}

func init() { register("fig2", newFig2Job) }

// newFig2Job prepares the Figure 2 job: one run per cloud environment,
// each the paper's headline experiment — the 3-minute RUBBoS run under
// the memory-lock MemCA attack (I = 2 s, L = 500 ms).
func newFig2Job(opts Options) (*job[fig2Record], error) {
	if err := checkTiersMatch(); err != nil {
		return nil, err
	}
	envs := []core.Env{core.EnvEC2, core.EnvPrivateCloud}
	return &job[fig2Record]{
		n: len(envs),
		run: func(a *stats.Arena, i int) (fig2Record, error) {
			env := envs[i]
			cfg := core.DefaultConfig()
			cfg.Seed = opts.Seed
			cfg.Env = env
			cfg.Duration = opts.duration(3 * time.Minute)
			cfg.Arena = a // the Report holds only heap copies; see core.Config
			x, err := core.NewExperiment(cfg)
			if err != nil {
				return fig2Record{}, fmt.Errorf("figures: fig2 %v: %w", env, err)
			}
			rep, err := x.Run()
			if err != nil {
				return fig2Record{}, fmt.Errorf("figures: fig2 %v run: %w", env, err)
			}
			rec := fig2Record{
				Env:         env.String(),
				ClientP95:   rep.Client.P95,
				ClientP98:   rep.Client.P98,
				ClientCurve: rep.ClientCurve,
			}
			for _, t := range rep.Tiers {
				rec.Tiers = append(rec.Tiers, fig2Tier{Name: t.Name, Curve: t.Curve, P95: t.Summary.P95})
			}
			return rec, nil
		},
		finalize: func(records []fig2Record) (any, string, error) {
			res := &Fig2Result{
				ClientP95:       make(map[string]time.Duration),
				ClientP98:       make(map[string]time.Duration),
				AmplificationOK: true,
			}
			lines := make([]string, 0, len(records))
			for i, env := range envs {
				rec := records[i]
				res.ClientP95[rec.Env] = rec.ClientP95
				res.ClientP98[rec.Env] = rec.ClientP98

				curves := map[string][]time.Duration{"client": rec.ClientCurve}
				order := []string{"client"}
				for _, t := range rec.Tiers {
					curves[t.Name] = t.Curve
					order = append(order, t.Name)
				}
				if err := writeCurves(opts.path("fig2_"+env.String()+".csv"), core.FigurePercentiles, order, curves); err != nil {
					return nil, "", err
				}

				tol := 5 * time.Millisecond
				apache, tomcat, mysql := rec.Tiers[0].P95, rec.Tiers[1].P95, rec.Tiers[2].P95
				if mysql > tomcat+tol || tomcat > apache+tol || apache > rec.ClientP95+tol {
					res.AmplificationOK = false
				}
				lines = append(lines, rec.Env+" client p95="+rec.ClientP95.String()+" p98="+rec.ClientP98.String())
			}
			// No fmt on this path: its pooled printers would make Fig2's
			// allocation contract depend on GOMAXPROCS.
			summary := "fig2: " + strings.Join(lines, "; ") + ", amplification ok=" + strconv.FormatBool(res.AmplificationOK)
			return res, summary, nil
		},
	}, nil
}

// Fig2 runs the paper's headline experiment — the 3-minute RUBBoS run
// under the memory-lock MemCA attack (I = 2 s, L = 500 ms) — in the EC2
// and private-cloud parameterizations, and writes one percentile-curve CSV
// per environment. It runs through the same job/finalize pair as the
// distributed fabric, so its outputs match a sharded run byte for byte.
func Fig2(opts Options) (*Fig2Result, error) {
	return runFigure[*Fig2Result](opts, newFig2Job)
}
