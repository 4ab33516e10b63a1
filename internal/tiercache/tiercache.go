// Package tiercache is the one tiered memo cache under the prover-outcome
// cache (simplify.Cache) and the function-result cache (checker.FuncCache):
// a memory LRU, an opt-in singleflight, write-through to a durable
// cachedisk.Store, and a pull peer tier, with one set of counters.
//
// A lookup probes memory, then disk, then peers; whatever an external tier
// serves is promoted to memory (and a peer record written through to disk),
// so the next lookup of the key is a memory hit. The namespaces differ only
// in their Codec: the payload format, the check a peer record must pass
// before admission (certificate replay for prover Valids), and the check a
// memory hit must pass before it is served (the content seal of function
// entries). Nothing unverified is ever served: a record that fails its codec
// is deleted at its disk source or refused from the peer and counted, and
// the caller computes afresh.
package tiercache

import (
	"sync"

	"repro/internal/cachedisk"
)

// Stats is a snapshot of a cache's counters. Hits and Misses describe the
// memory tier: a lookup served by disk or a peer counts as a Miss and also
// as a DiskHit or PeerHit.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Rejected counts entries dropped by an integrity check: a memory entry
	// that failed Codec.Intact, a disk record whose payload failed to decode,
	// or an entry the caller refused after the fact (Reject).
	Rejected uint64 `json:"rejected"`
	// Coalesced counts Lookups that joined another caller's in-progress fill
	// of the same key (singleflight): of N concurrent identical lookups, one
	// is a Miss (the leader) and N-1 are Coalesced.
	Coalesced uint64 `json:"coalesced"`
	// DiskHits and PeerHits count misses served by the disk and peer tiers;
	// PeerRejects counts peer records refused by verification. All stay zero
	// unless the tier is attached.
	DiskHits    uint64 `json:"disk_hits"`
	PeerHits    uint64 `json:"peer_hits"`
	PeerRejects uint64 `json:"peer_rejects"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PeerFetch fetches the sealed cachedisk record for a cache key from the
// peer tier, returning ok=false on a miss or when every peer is down (any
// failure is just a miss). The server package supplies the HTTP
// implementation, so the caches never import the network.
type PeerFetch func(key string) (sealed []byte, ok bool)

// Codec is what a namespace supplies: its payload format and its integrity
// checks.
type Codec[V any] struct {
	// Encode and Decode are the namespace's payload format, framed by
	// cachedisk's record seal on disk and on the wire. Decode must reject
	// (never guess at) any payload that is not a current, well-formed,
	// replayable value.
	Encode func(V) []byte
	Decode func([]byte) (V, error)
	// AdmitPeer, when set, is the extra check a decoded peer record must
	// pass before admission (for prover Valids: certificate replay and a
	// goal-key match).
	AdmitPeer func(key string, v V) error
	// Intact, when set, re-verifies a memory entry on every hit; an entry
	// that fails is dropped, counted Rejected, and treated as a miss. It
	// runs under the cache lock, so it must be quick and must not call back
	// into the cache.
	Intact func(V) bool
}

// node is one memory entry on the intrusive LRU ring.
type node[V any] struct {
	key        string
	val        V
	prev, next *node[V]
}

// Flight is one in-progress singleflight fill (see Lookup).
type Flight[V any] struct {
	done chan struct{}
	// val and ok are written before done closes and only read after, so
	// the close publishes them.
	val V
	ok  bool
}

// Done is closed when the leader has finished the fill.
func (f *Flight[V]) Done() <-chan struct{} { return f.done }

// Result is the leader's value once Done is closed; ok=false means the
// leader produced nothing cacheable and each waiter must compute its own.
func (f *Flight[V]) Result() (V, bool) { return f.val, f.ok }

// Cache is a thread-safe tiered memo cache; create it with New. The disk
// and peer tiers are attached before the cache is shared across goroutines
// and are immutable after.
type Cache[V any] struct {
	codec    Codec[V]
	capacity int
	disk     *cachedisk.Store
	peer     PeerFetch

	mu      sync.Mutex // guards everything below
	entries map[string]*node[V]
	root    node[V] // ring sentinel: root.next is the most recently used
	flights map[string]*Flight[V]
	stats   Stats
}

// New returns an empty cache holding at most capacity entries (at least
// one).
func New[V any](capacity int, codec Codec[V]) *Cache[V] {
	c := &Cache[V]{codec: codec, capacity: max(capacity, 1), entries: map[string]*node[V]{}}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// WithDisk attaches a disk tier: memory misses probe store, and every Put is
// written through to it. A nil store is a no-op.
func (c *Cache[V]) WithDisk(store *cachedisk.Store) *Cache[V] {
	c.disk = store
	return c
}

// WithPeerFetch attaches a peer tier, consulted when memory and disk miss.
func (c *Cache[V]) WithPeerFetch(fetch PeerFetch) *Cache[V] {
	c.peer = fetch
	return c
}

// Get returns the value cached under key from the first tier that has a
// verified copy.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	v, ok := c.probeLocked(key)
	if !ok {
		c.stats.Misses++
	}
	c.mu.Unlock()
	if ok {
		return v, true
	}
	return c.fetch(key)
}

// Lookup is Get with singleflight: concurrent misses on one key share one
// leader, which alone probes the external tiers and then computes. Exactly
// one of three results:
//
//   - hit: ok — use v;
//   - leader: !ok && lead — compute the value, then call Finish with fl
//     (mandatory, even on failure, or waiters hang);
//   - waiter: !ok && !lead — wait on fl.Done() and use fl.Result().
func (c *Cache[V]) Lookup(key string) (v V, ok bool, fl *Flight[V], lead bool) {
	c.mu.Lock()
	if v, ok := c.probeLocked(key); ok {
		c.mu.Unlock()
		return v, true, nil, false
	}
	if fl := c.flights[key]; fl != nil {
		c.stats.Coalesced++
		c.mu.Unlock()
		return v, false, fl, false
	}
	if c.flights == nil {
		c.flights = map[string]*Flight[V]{}
	}
	fl = &Flight[V]{done: make(chan struct{})}
	c.flights[key] = fl
	c.stats.Misses++
	c.mu.Unlock()
	if v, ok := c.fetch(key); ok {
		c.retire(key, fl, v, true)
		return v, true, nil, false
	}
	return v, false, fl, true
}

// Finish publishes a Lookup leader's fill: when ok, v is stored (memory and
// disk) before the flight is retired, so a prober never finds the key in
// neither place while a fill exists; waiters then share v.
func (c *Cache[V]) Finish(key string, fl *Flight[V], v V, ok bool) {
	if ok {
		c.Put(key, v)
	}
	c.retire(key, fl, v, ok)
}

func (c *Cache[V]) retire(key string, fl *Flight[V], v V, ok bool) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	fl.val, fl.ok = v, ok
	close(fl.done)
}

// Put stores v under key in memory and writes it through to the disk tier.
func (c *Cache[V]) Put(key string, v V) {
	if c.disk != nil {
		c.disk.Put(key, c.codec.Encode(v))
	}
	c.putMemory(key, v)
}

// Reject drops key from memory and deletes its disk record, counting it
// Rejected: the caller found the served value untrustworthy (say, a
// certificate that failed replay), so its bytes must not be served again.
func (c *Cache[V]) Reject(key string) {
	c.mu.Lock()
	if n := c.entries[key]; n != nil {
		c.removeLocked(n)
	}
	c.stats.Rejected++
	c.mu.Unlock()
	c.disk.Delete(key)
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DiskStats snapshots the attached disk store's counters (zero value when
// none is attached).
func (c *Cache[V]) DiskStats() cachedisk.Stats {
	return c.disk.Stats()
}

// Len returns the number of entries in memory.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// ForEach calls fn on every memory entry, most recently used first, under
// the cache lock and without touching recency or the counters.
func (c *Cache[V]) ForEach(fn func(key string, v V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := c.root.next; n != &c.root; n = n.next {
		fn(n.key, n.val)
	}
}

// probeLocked is the memory-tier lookup: a hit is moved to the front and
// counted; an entry that fails Codec.Intact is dropped and counted Rejected.
func (c *Cache[V]) probeLocked(key string) (V, bool) {
	n := c.entries[key]
	if n == nil {
		var zero V
		return zero, false
	}
	if c.codec.Intact != nil && !c.codec.Intact(n.val) {
		c.removeLocked(n)
		c.stats.Rejected++
		var zero V
		return zero, false
	}
	c.moveToFrontLocked(n)
	c.stats.Hits++
	return n.val, true
}

// fetch probes the disk, then the peer tier, after a memory miss. It runs
// outside the cache lock, so slow I/O never blocks concurrent memory hits.
func (c *Cache[V]) fetch(key string) (V, bool) {
	var zero V
	// Check for a store here, not in cachedisk: a nil store's Get still
	// hashes the key first, which the no-tier miss path must not pay.
	if c.disk != nil {
		if payload, ok := c.disk.Get(key); ok {
			if v, err := c.codec.Decode(payload); err == nil {
				c.bump(&c.stats.DiskHits)
				c.putMemory(key, v)
				return v, true
			}
			// Checksum-clean record, rotten payload (stale inner format or
			// hostile bytes): evict at the source, like disk corruption.
			c.disk.Delete(key)
			c.bump(&c.stats.Rejected)
		}
	}
	if c.peer == nil {
		return zero, false
	}
	sealed, ok := c.peer(key)
	if !ok {
		return zero, false
	}
	v, ok := c.admit(key, sealed)
	if !ok {
		c.bump(&c.stats.PeerRejects)
		return zero, false
	}
	c.bump(&c.stats.PeerHits)
	c.Put(key, v)
	return v, true
}

// bump increments one counter in c.stats under the cache lock.
func (c *Cache[V]) bump(counter *uint64) {
	c.mu.Lock()
	*counter++
	c.mu.Unlock()
}

// admit runs a peer record through the full gauntlet: it must unseal
// against the exact key asked for (checksum and embedded-key match), decode
// as a current payload, and pass the codec's AdmitPeer check.
func (c *Cache[V]) admit(key string, sealed []byte) (V, bool) {
	var zero V
	payload, err := cachedisk.Unseal(sealed, key)
	if err != nil {
		return zero, false
	}
	v, err := c.codec.Decode(payload)
	if err != nil {
		return zero, false
	}
	if c.codec.AdmitPeer != nil && c.codec.AdmitPeer(key, v) != nil {
		return zero, false
	}
	return v, true
}

// putMemory inserts into the memory tier only, evicting the least recently
// used entry when full. Storing a present key refreshes its value and
// recency without an eviction.
func (c *Cache[V]) putMemory(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.entries[key]; n != nil {
		n.val = v
		c.moveToFrontLocked(n)
		return
	}
	for len(c.entries) >= c.capacity {
		c.removeLocked(c.root.prev)
		c.stats.Evictions++
	}
	n := &node[V]{key: key, val: v}
	c.entries[key] = n
	c.linkFrontLocked(n)
}

func (c *Cache[V]) linkFrontLocked(n *node[V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

func (c *Cache[V]) moveToFrontLocked(n *node[V]) {
	if c.root.next == n {
		return
	}
	n.prev.next, n.next.prev = n.next, n.prev
	c.linkFrontLocked(n)
}

func (c *Cache[V]) removeLocked(n *node[V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
	delete(c.entries, n.key)
}
