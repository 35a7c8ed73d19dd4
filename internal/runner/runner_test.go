package runner

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fairbench/internal/rng"
)

func TestRunOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		got, err := Run(20, Options{Workers: workers}, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := Run(0, Options{}, func(int) (int, error) {
		t.Fatal("job called for n=0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v, %v", got, err)
	}
}

func TestRunFailFastReportsSerialError(t *testing.T) {
	// Jobs 3 and 7 fail; fail-fast must report job 3 — the failure the
	// serial loop would have hit first — regardless of worker count.
	for _, workers := range []int{1, 2, 8} {
		_, err := Run(10, Options{Workers: workers}, func(i int) (string, error) {
			if i == 3 || i == 7 {
				return "", fmt.Errorf("boom %d", i)
			}
			return "ok", nil
		})
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("workers=%d: error %v is not a JobError", workers, err)
		}
		if je.Index != 3 {
			t.Fatalf("workers=%d: fail-fast reported job %d, want 3", workers, je.Index)
		}
	}
}

func TestRunFailFastSkipsRemainingJobs(t *testing.T) {
	// Every job but 0 waits until the first Progress call. With them all
	// blocked, that call is job 0's, made after its failure is recorded,
	// so a job still queued behind the one the second worker holds is
	// skipped however the two workers are scheduled.
	var ran atomic.Int64
	failed := make(chan struct{})
	var once sync.Once
	_, err := Run(100, Options{
		Workers:  2,
		Progress: func(int, int) { once.Do(func() { close(failed) }) },
	}, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("first job fails")
		}
		<-failed
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 2 {
		t.Fatalf("fail-fast ran %d jobs, want at most jobs 0 and 1", n)
	}
}

func TestRunProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var seen []int
		_, err := Run(12, Options{
			Workers: workers,
			Progress: func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				if total != 12 {
					t.Errorf("total = %d", total)
				}
				seen = append(seen, done)
			},
		}, func(i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 12 {
			t.Fatalf("workers=%d: %d progress calls", workers, len(seen))
		}
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("workers=%d: progress not strictly increasing: %v", workers, seen)
			}
		}
	}
}

// TestRunPerJobRNGConvention exercises the package's determinism contract
// end to end: jobs that need randomness derive a private stream from
// their own index (rng.Derive), and the draws are then independent of
// worker count and scheduling.
func TestRunPerJobRNGConvention(t *testing.T) {
	draw := func(workers int) []float64 {
		out, err := Run(16, Options{Workers: workers}, func(i int) (float64, error) {
			return rng.Derive(99, int64(i)).Float64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := draw(1), draw(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("job %d drew %v serial vs %v parallel", i, serial[i], parallel[i])
		}
	}
}
