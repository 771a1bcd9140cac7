package plan

import (
	"reflect"
	"testing"
	"time"

	"memca/internal/spec"
	"memca/internal/stats"
)

// TestValidationRunArenaMatchesHeap replays every index of a short grid
// on one arena reused across all of them, then heap-backed, and requires
// identical results. Run resets the arena between the sized and the
// witness simulation, so a missed Reset, a result aliasing recycled slab
// storage, or stats leaking from one simulation into the next shows up
// as a diverging verdict.
func TestValidationRunArenaMatchesHeap(t *testing.T) {
	v, err := NewValidation(spec.DefaultSLO(), ValidateOptions{
		Cells:    DefaultGrid()[:2],
		Seeds:    []int64{3, 11},
		Duration: 8 * time.Second,
		Warmup:   4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := stats.NewArena()
	onArena := make([]CellResult, v.Jobs())
	for i := range onArena {
		if onArena[i], err = v.Run(a, i); err != nil {
			t.Fatalf("Run(arena, %d): %v", i, err)
		}
	}
	st := a.Stats()
	if st.OwnedBytes == 0 {
		t.Error("arena never backed a simulation")
	}
	if st.Live != 0 || st.Resets != uint64(2*v.Jobs()) {
		t.Errorf("arena after %d jobs: %d live objects, %d resets; want 0 live, %d resets",
			v.Jobs(), st.Live, st.Resets, 2*v.Jobs())
	}
	for i, got := range onArena {
		want, err := v.Run(nil, i)
		if err != nil {
			t.Fatalf("Run(nil, %d): %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d: arena-backed %+v, heap-backed %+v", i, got, want)
		}
	}
}
