package dataset

import "sync"

// BatchCache is the arm-once memo a batch of grid cells sharing one
// training split uses to compute a derived artifact exactly once: the
// first cell to ask for a key pays for the build, every later cell —
// including cells racing on other workers — receives the same value. It
// generalizes DesignCache (which memoizes one fixed artifact, the
// standardized design matrix) to arbitrary keys, so higher layers can
// share whatever their cells derive identically from the split (e.g. the
// post-processing approaches' common base fit) without this package
// importing them.
//
// Correctness contract, mirrored from DesignCache: builds must be
// deterministic functions of the dataset view and the key, and consumers
// must treat shared values as read-only (or copy the mutable parts), so
// arming the cache can never change grid output — only who computes it.
type BatchCache struct {
	entries sync.Map // comparable key -> *batchEntry
	// sweep marks a model sweep: a batch whose cells differ only in their
	// downstream model (see EnableBatchCache).
	sweep bool
}

type batchEntry struct {
	once sync.Once
	val  any
	err  error
}

// Do returns the memoized value for key, running build exactly once per
// key across all concurrent callers. An error is memoized too: every
// caller of a failed key observes the same error, matching what each
// would have computed alone. A nil cache memoizes nothing: build runs on
// every call, the per-cell behavior.
func (c *BatchCache) Do(key any, build func() (any, error)) (any, error) {
	if c == nil {
		return build()
	}
	e, _ := c.entries.LoadOrStore(key, &batchEntry{})
	be := e.(*batchEntry)
	be.once.Do(func() { be.val, be.err = build() })
	return be.val, be.err
}

// EnableBatchCache arms d with a batch cache. sweep marks a model sweep,
// a batch whose cells differ only in their downstream model: only there
// is an artifact that does not depend on the model (a pre-processing
// repair) worth keeping for the whole batch, since elsewhere it has one
// consumer. Idempotent (the first arming wins) and safe to call
// concurrently; intended for batch execution's per-batch prepare step,
// alongside EnableDesignCache.
func (d *Dataset) EnableBatchCache(sweep bool) {
	d.batch.CompareAndSwap(nil, &BatchCache{sweep: sweep})
}

// Batch returns the armed batch cache, or nil when the dataset is not
// under batched execution — callers then compute per cell, the
// historical behavior.
func (d *Dataset) Batch() *BatchCache { return d.batch.Load() }

// SweepBatch returns the armed batch cache when it was armed for a model
// sweep, and nil otherwise — the cache for artifacts only a model sweep
// reuses.
func (d *Dataset) SweepBatch() *BatchCache {
	if c := d.batch.Load(); c != nil && c.sweep {
		return c
	}
	return nil
}
