package memmodel

import "testing"

// TestVMAllocationZeroAllocs pins the burst-transition contract that
// attack.MemoryInjector relies on: once the host scratch is warm, flipping
// a lock adversary on and off and re-reading the victim's allocation at
// each flank performs no heap allocations.
func TestVMAllocationZeroAllocs(t *testing.T) {
	h, err := NewHost(XeonE5_2603v3())
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, h, VM{ID: "victim", Package: 0, Workload: WorkloadVictim, DemandMBps: 2000})
	mustAdd(t, h, VM{ID: "adversary", Package: 0, Workload: WorkloadIdle})
	var idle, locked float64
	burst := func() {
		if err := h.SetWorkload("adversary", WorkloadLock, 0, 1); err != nil {
			t.Fatal(err)
		}
		locked, _ = h.VMAllocation("victim")
		if err := h.SetWorkload("adversary", WorkloadIdle, 0, 0); err != nil {
			t.Fatal(err)
		}
		idle, _ = h.VMAllocation("victim")
	}
	burst() // warm the scratch map and slices
	if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
		t.Errorf("lock burst on/off with VMAllocation allocates %v objects/op, want 0", allocs)
	}
	if locked >= idle {
		t.Errorf("victim bandwidth under lock %v not below idle %v", locked, idle)
	}
}
