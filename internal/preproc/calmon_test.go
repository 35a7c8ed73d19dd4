package preproc

import (
	"fmt"
	"testing"

	"fairbench/internal/dataset"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// fig7Train returns the training split a fig7 grid of src at seed fits
// on.
func fig7Train(src *synth.Source, seed int64) *dataset.Dataset {
	train, _ := src.Data.Split(0.7, rng.New(seed))
	return train
}

// TestCalmonRepairAllocs bounds one repair's allocations on German
// n=300 (2,592 joint states): the targets of every state sit in one
// slab and unobserved states share the identity rows, so the count
// stays far below one allocation per state.
func TestCalmonRepairAllocs(t *testing.T) {
	train := fig7Train(synth.German(300, 100001), 100001)
	c := &Calmon{Seed: 100001}
	if _, err := c.Repair(train); err != nil {
		t.Fatal(err)
	}
	if n := 2 * c.nCells; n != 2592 {
		t.Fatalf("German n=300 repair has %d joint states, want 2592", n)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := (&Calmon{Seed: 100001}).Repair(train); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300 {
		t.Fatalf("Calmon.Repair allocates %v times per call, want at most 300", allocs)
	}
}

// BenchmarkCalmonRepair times one repair of fig7's training split on
// German n=300 at two serve-local seeds and on Adult n=5000.
func BenchmarkCalmonRepair(b *testing.B) {
	for _, c := range []struct {
		name string
		src  func(int, int64) *synth.Source
		n    int
		seed int64
	}{
		{"german", synth.German, 300, 100001},
		{"german", synth.German, 300, 100005},
		{"adult", synth.Adult, 5000, 1},
	} {
		train := fig7Train(c.src(c.n, c.seed), c.seed)
		b.Run(fmt.Sprintf("%s-%d-%d", c.name, c.n, c.seed), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := (&Calmon{Seed: c.seed}).Repair(train); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
