// Package runner is the parallel experiment execution engine: it fans a
// list of independent jobs (one per approach × dataset-slice cell of an
// experiment grid) across a pool of worker goroutines and collects their
// results in job order, so drivers produce byte-identical output whether
// they run serially or across all of GOMAXPROCS.
//
// Determinism contract: jobs must not share mutable state. In particular
// rng.RNG is not safe for concurrent use, so a job must never reach for a
// generator owned by another job or by the dispatching code — a job that
// needs randomness constructs its own private stream from its inputs:
// rng.Derive(seed, jobIndex) for a job-local generator, or (as the
// experiment drivers do) an explicit seed threaded into the components it
// builds. Under that contract the scheduling order cannot influence any
// result, only wall time.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures one Run call.
type Options struct {
	// Workers is the number of concurrent workers; <= 0 uses one per
	// CPU (runtime.GOMAXPROCS(0)). One worker runs the jobs one at a
	// time in index order.
	Workers int
	// Progress, when non-nil, is called after each job finishes with the
	// completed count and the total. Calls are serialized; done is
	// strictly increasing and reaches total unless a failure skips jobs.
	Progress func(done, total int)
	// Offset shifts the job index space: the n jobs are invoked with
	// indices [Offset, Offset+n), and JobError reports the shifted index.
	// This lets one contiguous shard of a larger grid run as its own Run
	// call while every job keeps its global grid coordinate — the same
	// cell therefore computes the same result whether the grid runs whole
	// or split across processes (see internal/shard).
	Offset int
}

// JobError records which job of a Run failed.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the job's underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Run executes n jobs across a worker pool and returns their results in
// job-index order. job(i) computes job i (i includes Options.Offset); per
// the package determinism contract it must derive any randomness it needs
// from i (and its own captured seeds), never from state shared with other
// jobs.
//
// A failure stops the run: no job starts once a lower-index job has
// failed (queued jobs are drained, but skipped), and Run returns
// (nil, err) where err is a *JobError wrapping the lowest-index failure —
// the one the equivalent serial loop would have returned.
func Run[T any](n int, opts Options, job func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	runPool(n, workers, opts, job, results, errs)
	for i, err := range errs {
		if err != nil {
			return nil, &JobError{Index: opts.Offset + i, Err: err}
		}
	}
	return results, nil
}

func runPool[T any](n, workers int, opts Options, job func(int) (T, error), results []T, errs []error) {
	jobs := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	// firstFail is the lowest job index known to have failed (n = none
	// yet). Job i is skipped only when firstFail < i, so every job below
	// the eventual minimum failure is guaranteed to execute — which is
	// what makes the reported error exactly the serial loop's, not
	// merely the first failure some worker happened to observe.
	var firstFail atomic.Int64
	firstFail.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A stale read only delays the skip by one job.
				if firstFail.Load() < int64(i) {
					continue
				}
				results[i], errs[i] = job(opts.Offset + i)
				if errs[i] != nil {
					for {
						cur := firstFail.Load()
						if cur <= int64(i) || firstFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
