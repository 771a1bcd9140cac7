package figures

import (
	"fmt"
	"strconv"

	"memca/internal/memmodel"
	"memca/internal/stats"
	"memca/internal/trace"
)

// Fig3Result captures Figure 3: available memory bandwidth per co-located
// VM versus VM count, placement, and attack type.
type Fig3Result struct {
	// Curves maps "<placement>/<attack>" to per-VM MB/s for 1..6 VMs.
	Curves map[string][]float64
	// SingleVMSaturates reports whether one VM saturated the bus
	// (the paper's finding 1 says it must not).
	SingleVMSaturates bool
	// LockBelowSaturation reports finding 3: the lock attack leaves
	// every VM less bandwidth than bus saturation does, at every count.
	LockBelowSaturation bool
}

func init() { register("fig3", newFig3Job) }

// newFig3Job prepares Figure 3: one bandwidth profile sweep per
// (placement, attack) variant, each record a per-VM MB/s curve.
func newFig3Job(opts Options) (*job[[]float64], error) {
	cfg := memmodel.XeonE5_2603v3()
	const maxVMs = 6

	type variant struct {
		placement memmodel.PlacementMode
		kind      memmodel.AttackKind
	}
	variants := []variant{
		{memmodel.PlacementSamePackage, memmodel.AttackBusSaturation},
		{memmodel.PlacementSamePackage, memmodel.AttackMemoryLock},
		{memmodel.PlacementRandomPackage, memmodel.AttackBusSaturation},
		{memmodel.PlacementRandomPackage, memmodel.AttackMemoryLock},
	}
	return &job[[]float64]{
		n: len(variants),
		run: func(_ *stats.Arena, i int) ([]float64, error) {
			v := variants[i]
			points, err := memmodel.Sweep(memmodel.ProfileSpec{
				Host: cfg, VMs: maxVMs, Placement: v.placement, Kind: v.kind, LockDuty: 1.0,
			})
			if err != nil {
				return nil, fmt.Errorf("figures: fig3 %v/%v: %w", v.placement, v.kind, err)
			}
			curve := make([]float64, 0, maxVMs)
			for _, p := range points {
				curve = append(curve, p.PerVMMBps)
			}
			return curve, nil
		},
		finalize: func(curves [][]float64) (any, string, error) {
			res := &Fig3Result{Curves: make(map[string][]float64), LockBelowSaturation: true}
			for i, v := range variants {
				res.Curves[v.placement.String()+"/"+v.kind.String()] = curves[i]
			}

			// Finding 1: one VM alone under bus-saturation placement does
			// not reach the bus capacity.
			single := res.Curves["same-package/bus-saturation"][0]
			res.SingleVMSaturates = single >= cfg.BusBandwidthMBps

			// Finding 3 across both placements and all VM counts.
			for _, placement := range []string{"same-package", "random-package"} {
				sat := res.Curves[placement+"/bus-saturation"]
				lock := res.Curves[placement+"/memory-lock"]
				for k := 0; k < maxVMs; k++ {
					if lock[k] >= sat[k] {
						res.LockBelowSaturation = false
					}
				}
			}

			if path := opts.path("fig3_bandwidth.csv"); path != "" {
				header := []string{"vms"}
				order := make([]string, 0, len(variants))
				for _, v := range variants {
					key := v.placement.String() + "/" + v.kind.String()
					order = append(order, key)
					header = append(header, key)
				}
				rows := make([][]string, 0, maxVMs)
				for k := 0; k < maxVMs; k++ {
					row := []string{strconv.Itoa(k + 1)}
					for _, key := range order {
						row = append(row, strconv.FormatFloat(res.Curves[key][k], 'f', 1, 64))
					}
					rows = append(rows, row)
				}
				if err := trace.WriteCSV(path, header, rows); err != nil {
					return nil, "", err
				}
			}
			return res, fmt.Sprintf("fig3: lock below saturation=%t", res.LockBelowSaturation), nil
		},
	}, nil
}

// Fig3 sweeps 1-6 co-located VMs over {same, random} package placement
// and {bus-saturation, memory-lock} attacks on the private-cloud host and
// writes the four curves as one CSV.
func Fig3(opts Options) (*Fig3Result, error) {
	return runFigure[*Fig3Result](opts, newFig3Job)
}
