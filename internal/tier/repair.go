package tier

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Anti-entropy repair: a rejoined or wiped fleet member pulls the keys
// it owns under rendezvous hashing back from its peers, so its shard
// warms from the fleet instead of from recomputes. Each round asks
// every available peer for its key manifest (GET /v1/tier/manifest),
// diffs the owned keys against the local disk store, and pulls the
// missing ones over the existing peer-GET protocol — verified against
// the sealed-envelope codec before landing on disk, bounded per round
// in both keys and bytes so a cold member never floods the fleet.
// Repair is pull-only and idempotent: running it on a warm member is a
// manifest exchange and nothing else.
//
// Manifests are fetched as deltas: the repairer remembers, per peer,
// the accumulated key set and the write-generation cursor the peer
// last advertised (ManifestGenHeader), so a steady-state round asks
// only for keys written since the previous round instead of the full
// list. The full list remains the fallback — first contact, a peer
// that does not advertise a generation, or a cursor the peer's
// restarted store no longer covers all reset to it. Deltas never
// report deletions, so a remembered key a peer has since evicted is
// discovered as a clean miss at pull time (ErrPeerMiss) and retired
// then; a transport failure retires nothing, because the peer may
// still hold the key.

// RepairConfig tunes a Repairer; zero values select the defaults.
type RepairConfig struct {
	// Interval is the period of Run's repair rounds (default 30s).
	Interval time.Duration
	// MaxKeysPerRound bounds keys pulled per round (default 256).
	MaxKeysPerRound int
	// MaxBytesPerRound bounds bytes pulled per round (default 64 MiB).
	MaxBytesPerRound int64
}

// RepairStats is the repair loop's cumulative accounting, shaped for
// /v1/stats.
type RepairStats struct {
	// Rounds counts completed repair rounds.
	Rounds uint64 `json:"rounds"`
	// KeysPulled/BytesPulled count entries backfilled from peers.
	KeysPulled  uint64 `json:"keys_pulled"`
	BytesPulled uint64 `json:"bytes_pulled"`
	// Failures counts manifest fetches, pulls, verifications, and
	// stores that did not complete (each retried next round).
	Failures uint64 `json:"failures"`
	// Missing is the last round's remaining owned-key deficit — keys
	// peers hold for this member that are not yet local. A converged
	// member reads 0; operators watch it fall after a rejoin.
	Missing int `json:"missing"`
}

// Repairer drives anti-entropy rounds for one Tier. Methods are safe
// for concurrent use; concurrent Round calls serialize on the view
// state (Run is the usual driver, tests call Round directly).
type Repairer struct {
	t   *Tier
	cfg RepairConfig

	// roundMu serializes rounds and guards views: the per-peer delta
	// cursors and accumulated manifest key sets.
	roundMu sync.Mutex
	views   map[string]*peerView

	rounds, keysPulled, bytesPulled, failures atomic.Uint64
	missing                                   atomic.Int64
}

// peerView is what the repairer remembers about one peer's manifest:
// the keys it has advertised (minus those retired as clean misses) and
// the generation cursor for the next delta fetch.
type peerView struct {
	cursor uint64
	keys   map[string]bool
}

// NewRepairer builds a repairer over t, which must have all three of a
// disk store, a peer ring with Self set, and a peer client — repair is
// meaningless without a place to land keys, an identity that owns
// them, and peers to pull from.
func NewRepairer(t *Tier, cfg RepairConfig) (*Repairer, error) {
	if t == nil || t.disk == nil || t.ring == nil || t.client == nil {
		return nil, fmt.Errorf("tier: repair needs a disk store and a peer ring")
	}
	if t.ring.Self() == "" {
		return nil, fmt.Errorf("tier: repair needs Self set (whose keys would it pull?)")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.MaxKeysPerRound <= 0 {
		cfg.MaxKeysPerRound = 256
	}
	if cfg.MaxBytesPerRound <= 0 {
		cfg.MaxBytesPerRound = 64 << 20
	}
	return &Repairer{t: t, cfg: cfg, views: make(map[string]*peerView)}, nil
}

// Interval returns the configured round period.
func (r *Repairer) Interval() time.Duration { return r.cfg.Interval }

// refreshView updates the remembered manifest view of peer with one
// delta (or, when the cursor cannot be trusted, full) fetch, reporting
// success. Called with roundMu held.
func (r *Repairer) refreshView(ctx context.Context, peer string) (*peerView, bool) {
	view := r.views[peer]
	if view == nil {
		view = &peerView{keys: make(map[string]bool)}
		r.views[peer] = view
	}
	keys, gen, ok := r.t.client.ManifestSince(ctx, peer, view.cursor)
	if !ok {
		return view, false
	}
	if gen < view.cursor {
		// The peer's store restarted (its generation counter regressed
		// below our cursor, which KeysSince answers with the full list)
		// or the peer stopped advertising generations: either way our
		// accumulated set may contain keys the new incarnation never
		// had. Rebuild the view from this reply, which was a full
		// listing by the cursor-regression fallback.
		view.keys = make(map[string]bool, len(keys))
	} else if view.cursor == 0 {
		// First contact (or a peer stuck on full listings): the reply
		// is the complete listing, so replace rather than accumulate.
		view.keys = make(map[string]bool, len(keys))
	}
	for _, key := range keys {
		view.keys[key] = true
	}
	view.cursor = gen
	return view, true
}

// Round performs one bounded repair pass and returns the number of
// keys pulled. Keys past the round's key/byte bounds (and failed
// pulls) are left for the next round and counted in the Missing gauge.
func (r *Repairer) Round(ctx context.Context) int {
	r.roundMu.Lock()
	defer r.roundMu.Unlock()
	pulled := 0
	var pulledBytes int64
	missing := 0
	seen := make(map[string]bool)
	self := r.t.ring.Self()
	for _, peer := range r.t.ring.Peers() {
		if peer == self || ctx.Err() != nil {
			continue
		}
		if !r.t.client.Available(peer) {
			continue
		}
		view, ok := r.refreshView(ctx, peer)
		if !ok {
			r.failures.Add(1)
			continue
		}
		keys := make([]string, 0, len(view.keys))
		for key := range view.keys {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if seen[key] || !r.t.ring.OwnedBySelf(key) || r.t.disk.Has(key) {
				continue
			}
			seen[key] = true
			if pulled >= r.cfg.MaxKeysPerRound || pulledBytes >= r.cfg.MaxBytesPerRound || ctx.Err() != nil {
				missing++
				continue
			}
			blob, err := r.t.client.Fetch(ctx, peer, key)
			if err == ErrPeerMiss {
				// The peer provably no longer holds the key (evicted
				// since the view accumulated it): retire it so the delta
				// state converges instead of re-asking forever. Another
				// peer's view may still supply it this same round.
				delete(view.keys, key)
				delete(seen, key)
				continue
			}
			if err != nil {
				r.failures.Add(1)
				missing++
				continue
			}
			// The same envelope gate as ServePut: a damaged pull never
			// lands on disk (and is retried from the fleet next round).
			if _, _, err := Open(blob); err != nil {
				r.failures.Add(1)
				missing++
				continue
			}
			if err := r.t.disk.Put(key, blob); err != nil {
				r.failures.Add(1)
				missing++
				continue
			}
			pulled++
			pulledBytes += int64(len(blob))
		}
	}
	r.rounds.Add(1)
	r.keysPulled.Add(uint64(pulled))
	r.bytesPulled.Add(uint64(pulledBytes))
	r.missing.Store(int64(missing))
	return pulled
}

// Missing returns the current owned-key deficit — every key some
// available peer holds that this member owns but lacks locally —
// sorted and deduped. The chaos suite asserts it converges to empty;
// it never pulls anything.
func (r *Repairer) Missing(ctx context.Context) []string {
	seen := make(map[string]bool)
	self := r.t.ring.Self()
	for _, peer := range r.t.ring.Peers() {
		if peer == self || !r.t.client.Available(peer) {
			continue
		}
		keys, _, ok := r.t.client.ManifestSince(ctx, peer, 0)
		if !ok {
			continue
		}
		for _, key := range keys {
			if !seen[key] && r.t.ring.OwnedBySelf(key) && !r.t.disk.Has(key) {
				seen[key] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for key := range seen {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// Run repairs every Interval until ctx is cancelled. The first round
// runs after one full interval — a daemon joining a fleet that is
// still starting up should not race its peers' listeners — so a
// rejoined member converges within Interval plus a bounded number of
// rounds.
func (r *Repairer) Run(ctx context.Context) {
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.Round(ctx)
		}
	}
}

// Stats snapshots the repairer.
func (r *Repairer) Stats() RepairStats {
	return RepairStats{
		Rounds:      r.rounds.Load(),
		KeysPulled:  r.keysPulled.Load(),
		BytesPulled: r.bytesPulled.Load(),
		Failures:    r.failures.Load(),
		Missing:     int(r.missing.Load()),
	}
}
