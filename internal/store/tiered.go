package store

import "sync/atomic"

// failThreshold is how many consecutive remote transport failures a
// TieredStore tolerates before declaring the remote down and running
// local-only for the rest of the handle's life.
const failThreshold = 3

// TieredStore layers a local Backend (normally a DiskStore) in front of
// a shared RemoteStore:
//
//   - Get reads through: a local hit is served directly; otherwise the
//     remote is consulted and a verified remote hit is promoted into the
//     local tier before being returned, so the next read is local.
//   - Put writes through: the cell lands locally first (that write's
//     error, if any, is the caller's), then best-effort on the remote so
//     other machines see it.
//
// Remote outages never fail a run: after failThreshold consecutive
// transport failures the handle latches Degraded and stops calling the
// remote entirely — every cell is still served or recomputed locally,
// byte-identical to a run that never had a remote. The latch is
// per-handle (per-process): a fleet worker that loses the cache server
// finishes its shard on local compute alone.
type TieredStore struct {
	local  Backend
	remote *RemoteStore

	consecFails atomic.Int64
	degraded    atomic.Bool
	hits        atomic.Int64
	misses      atomic.Int64
}

var _ Backend = (*TieredStore)(nil)

// NewTiered returns a TieredStore reading and writing through local to
// remote. Both must be non-nil.
func NewTiered(local Backend, remote *RemoteStore) *TieredStore {
	return &TieredStore{local: local, remote: remote}
}

// Degraded reports whether the remote has been declared down for this
// handle: reads and writes are local-only from that point on. Engine
// reports surface this so an operator learns the fleet stopped sharing.
func (t *TieredStore) Degraded() bool { return t.degraded.Load() }

// note tracks the outcome of one remote call: any transport failure
// advances the consecutive-failure count toward the latch, any success
// resets it.
func (t *TieredStore) note(err error) {
	if err == nil {
		t.consecFails.Store(0)
		return
	}
	if t.consecFails.Add(1) >= failThreshold {
		t.degraded.Store(true)
	}
}

func (t *TieredStore) remoteDown() bool { return t.degraded.Load() }

// Get serves k from the local tier, then — unless degraded — from the
// remote, promoting a verified remote hit into the local tier.
func (t *TieredStore) Get(k Key) ([]byte, bool) {
	if payload, ok := t.local.Get(k); ok {
		t.hits.Add(1)
		return payload, true
	}
	if !t.remoteDown() {
		payload, ok, err := t.remote.getChecked(k)
		t.note(err)
		if ok {
			t.hits.Add(1)
			// Promote: future reads (and this run's sibling processes
			// sharing the directory) hit locally. Best-effort — a failed
			// promotion just means the next read asks the remote again.
			t.local.Put(k, payload)
			return payload, true
		}
	}
	t.misses.Add(1)
	return nil, false
}

// Put writes through: locally first (returning that error), then
// best-effort to the remote so the fleet's shared cache learns the cell.
func (t *TieredStore) Put(k Key, payload []byte) error {
	if err := t.local.Put(k, payload); err != nil {
		return err
	}
	if !t.remoteDown() {
		t.note(t.remote.putChecked(k, payload))
	}
	return nil
}

// Counters returns the tiered view: Hits/Misses as observed at this
// layer (a hit is a serve from either tier), Writes from the local tier
// (which sees every write-through and promotion), and Rejected/Errors
// summed across tiers so no verification failure or outage is hidden.
func (t *TieredStore) Counters() Counters {
	lc, rc := t.local.Counters(), t.remote.Counters()
	return Counters{
		Hits:     t.hits.Load(),
		Misses:   t.misses.Load(),
		Writes:   lc.Writes,
		Rejected: lc.Rejected + rc.Rejected,
		Errors:   rc.Errors,
	}
}
