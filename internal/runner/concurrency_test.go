package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestRunOffsetIndices checks the shard contract: with Offset set, the n
// jobs are invoked with their global grid indices [Offset, Offset+n), in
// every execution mode.
func TestRunOffsetIndices(t *testing.T) {
	for _, workers := range []int{1, 3} {
		got, err := Run(5, Options{Workers: workers, Offset: 10}, func(i int) (int, error) {
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for local, global := range got {
			if global != 10+local {
				t.Fatalf("workers=%d: job %d saw index %d, want %d", workers, local, global, 10+local)
			}
		}
	}
}

// TestRunOffsetJobError checks that failures report the global index, and
// that fail-fast still resolves to the lowest global failure.
func TestRunOffsetJobError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(6, Options{Workers: workers, Offset: 20}, func(i int) (int, error) {
			if i == 22 || i == 24 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		var je *JobError
		if !errors.As(err, &je) || je.Index != 22 {
			t.Fatalf("workers=%d: error %v, want JobError at global index 22", workers, err)
		}
	}
}

// TestConcurrentRuns starts many Runs at once, with pool sizes from
// the default (0 = one worker per CPU) up to more workers than a small
// machine has cores. Under -race this guards against state shared
// between Runs; functionally every Run must return complete, ordered
// results.
func TestConcurrentRuns(t *testing.T) {
	var runs sync.WaitGroup
	for r := 0; r < 8; r++ {
		runs.Add(1)
		go func(r int) {
			defer runs.Done()
			got, err := Run(50, Options{Workers: r}, func(i int) (int, error) { return r*1000 + i, nil })
			if err != nil {
				t.Errorf("run %d: %v", r, err)
				return
			}
			for i, v := range got {
				if v != r*1000+i {
					t.Errorf("run %d: result %d = %d", r, i, v)
					return
				}
			}
		}(r)
	}
	runs.Wait()
}

// TestRunProperties is a randomized property test (fixed seed, so it is
// reproducible): for random job counts, worker counts, offsets, and
// failure sets, Run must (a) return results in job order and (b) on any
// failure report exactly the lowest-index one, with no results. Run
// under -race in CI, it doubles as a scheduling fuzz of the pool.
func TestRunProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := rnd.Intn(40)
		workers := 1 + rnd.Intn(8)
		offset := rnd.Intn(100)
		fails := map[int]bool{}
		for j := 0; j < rnd.Intn(4); j++ {
			fails[offset+rnd.Intn(n+1)] = true
		}
		lowestFail := -1
		for i := offset; i < offset+n; i++ {
			if fails[i] {
				lowestFail = i
				break
			}
		}
		got, err := Run(n, Options{Workers: workers, Offset: offset},
			func(i int) (int, error) {
				if fails[i] {
					return 0, fmt.Errorf("fail %d", i)
				}
				return i * 3, nil
			})
		if lowestFail == -1 {
			if err != nil {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
			for local, v := range got {
				if v != (offset+local)*3 {
					t.Fatalf("trial %d: result %d = %d", trial, local, v)
				}
			}
			continue
		}
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("trial %d: error %v is not a JobError", trial, err)
		}
		if got != nil || je.Index != lowestFail {
			t.Fatalf("trial %d: reported %d, want %d", trial, je.Index, lowestFail)
		}
	}
}
