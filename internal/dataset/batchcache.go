package dataset

import "sync"

// BatchCache is the arm-once memo the cells of a model sweep, which share
// one training split and differ only in their downstream model, use to
// compute a derived artifact exactly once: the first cell to ask for a
// key pays for the build, every later cell — including cells racing on
// other workers — receives the same value. Keys are arbitrary, so higher
// layers can share whatever their cells derive identically from the split
// (a pre-processing repair, a post-processor's base fit) without this
// package importing them.
//
// Correctness contract: builds must be deterministic functions of the
// dataset view and the key, and consumers must treat shared values as
// read-only (or copy the mutable parts), so arming the cache can never
// change grid output — only who computes it.
type BatchCache struct {
	entries sync.Map // comparable key -> *batchEntry
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

// EnableBatchCache arms d with a batch cache. Idempotent (the first
// arming wins) and safe to call concurrently; the model sweep's run path
// arms its training split before its cells fan out.
func (d *Dataset) EnableBatchCache() {
	d.batch.CompareAndSwap(nil, &BatchCache{})
}

// Batch returns the armed batch cache, or nil when the dataset is not a
// model sweep's armed split — callers then compute per cell.
func (d *Dataset) Batch() *BatchCache { return d.batch.Load() }
