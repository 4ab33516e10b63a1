package tiercache

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cachedisk"
)

// entry is the test value: a payload plus a checksum that Intact verifies.
type entry struct {
	val string
	sum int
}

func newEntry(val string) *entry { return &entry{val: val, sum: len(val)} }

// testCodec stores entries as their payload bytes. Decode refuses
// "rotten"; AdmitPeer refuses "forged"; Intact checks the checksum.
var testCodec = Codec[*entry]{
	Encode: func(e *entry) []byte { return []byte(e.val) },
	Decode: func(b []byte) (*entry, error) {
		if string(b) == "rotten" {
			return nil, errors.New("rotten payload")
		}
		return newEntry(string(b)), nil
	},
	AdmitPeer: func(_ string, e *entry) error {
		if e.val == "forged" {
			return errors.New("forged")
		}
		return nil
	},
	Intact: func(e *entry) bool { return e.sum == len(e.val) },
}

func get(t *testing.T, c *Cache[*entry], key string) (string, bool) {
	t.Helper()
	e, ok := c.Get(key)
	if !ok {
		return "", false
	}
	return e.val, true
}

// TestCachePutRefreshesPresentKey pins the put-on-present-key contract: the
// value and recency are refreshed in place, with no eviction counted and no
// length change.
func TestCachePutRefreshesPresentKey(t *testing.T) {
	c := New(2, testCodec)
	c.Put("k1", newEntry("valid"))
	c.Put("k2", newEntry("first"))
	c.Put("k1", newEntry("refreshed"))
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("re-put of a present key counted %d eviction(s)", s.Evictions)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after re-put, want 2", got)
	}

	// The re-put moved k1 to the front, so a third key evicts k2.
	c.Put("k3", newEntry("valid"))
	if v, ok := get(t, c, "k1"); !ok || v != "refreshed" {
		t.Errorf("k1 = (%q, %v), want the refreshed value present", v, ok)
	}
	if _, ok := get(t, c, "k2"); ok {
		t.Error("least-recently-used key survived eviction")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want exactly 1", s.Evictions)
	}
}

// TestCacheLRUOrder: a hit refreshes recency, so the entry evicted is the
// one least recently used, not the oldest inserted.
func TestCacheLRUOrder(t *testing.T) {
	c := New(2, testCodec)
	c.Put("p", newEntry("p"))
	c.Put("q", newEntry("q"))
	get(t, c, "p")            // touch p: q is now least recently used
	c.Put("r", newEntry("r")) // evicts q
	if _, ok := get(t, c, "p"); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := get(t, c, "q"); ok {
		t.Error("least recently used entry survived eviction")
	}
}

// TestCacheStatsConsistentUnderConcurrentOverlap hammers one cache with
// concurrent gets and puts over overlapping keys. Capacity covers every
// distinct key, so any eviction could only come from a present-key re-put
// being miscounted; and every get must land in exactly one of Hits/Misses.
// Run under -race this also gates the counter updates themselves.
func TestCacheStatsConsistentUnderConcurrentOverlap(t *testing.T) {
	const (
		keys         = 32
		workers      = 8
		opsPerWorker = 400
	)
	c := New(keys, testCodec)
	var gets atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := "k" + strconv.Itoa((w*7+i)%keys)
				if i%2 == 0 {
					c.Put(k, newEntry("valid"))
				} else {
					c.Get(k)
					gets.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	if s.Evictions != 0 {
		t.Errorf("evictions = %d with capacity >= distinct keys: a present-key re-put evicted", s.Evictions)
	}
	if total := s.Hits + s.Misses; total != gets.Load() {
		t.Errorf("Hits+Misses = %d, want %d (one of each per get)", total, gets.Load())
	}
	if got := c.Len(); got != keys {
		t.Errorf("Len = %d, want %d", got, keys)
	}
}

// TestIntactFailureDropsMemoryEntry: a memory entry corrupted behind the
// codec's back is dropped on its next hit, counted Rejected (not evicted),
// and the lookup falls through as a miss whose leader re-fills the key.
func TestIntactFailureDropsMemoryEntry(t *testing.T) {
	c := New(4, testCodec)
	c.Put("k", newEntry("good"))
	c.ForEach(func(_ string, e *entry) { e.val = "tampered" })

	if _, ok, fl, lead := c.Lookup("k"); ok || !lead {
		t.Fatalf("corrupted entry: ok=%v lead=%v, want a leader miss", ok, lead)
	} else {
		c.Finish("k", fl, newEntry("good"), true)
	}
	if s := c.Stats(); s.Rejected != 1 || s.Evictions != 0 || s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 rejected, 1 miss, no eviction", s)
	}
	if v, ok := get(t, c, "k"); !ok || v != "good" {
		t.Fatalf("re-filled entry = (%q, %v), want the leader's value", v, ok)
	}
}

// TestRejectDeletesDiskRecord: Reject drops the entry from every tier, so
// a restart over the same store does not serve the refused bytes again.
func TestRejectDeletesDiskRecord(t *testing.T) {
	dir := t.TempDir()
	store, err := cachedisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(4, testCodec).WithDisk(store)
	c.Put("k", newEntry("untrusted"))
	if store.Len() != 1 {
		t.Fatalf("disk holds %d records after Put, want 1", store.Len())
	}
	c.Reject("k")
	if s := c.Stats(); s.Rejected != 1 || s.Evictions != 0 || c.Len() != 0 {
		t.Fatalf("stats = %+v, Len = %d: want 1 rejected, none evicted, empty memory", s, c.Len())
	}
	if store.Len() != 0 {
		t.Fatalf("disk still holds %d records after Reject", store.Len())
	}
	store2, err := cachedisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, New(4, testCodec).WithDisk(store2), "k"); ok {
		t.Fatal("rejected record served after restart")
	}
}

// TestPeerAdmitAndReject: a peer record is admitted only when it unseals
// against the asked-for key, decodes, and passes AdmitPeer; admitted
// records are written through to disk, refused ones only counted.
func TestPeerAdmitAndReject(t *testing.T) {
	records := map[string][]byte{
		"good":     cachedisk.Seal("good", []byte("payload")),
		"forged":   cachedisk.Seal("forged", []byte("forged")),
		"rotten":   cachedisk.Seal("rotten", []byte("rotten")),
		"wrongkey": cachedisk.Seal("other", []byte("payload")),
	}
	store, err := cachedisk.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(4, testCodec).WithDisk(store).WithPeerFetch(func(key string) ([]byte, bool) {
		rec, ok := records[key]
		return rec, ok
	})
	if v, ok := get(t, c, "good"); !ok || v != "payload" {
		t.Fatalf("good peer record = (%q, %v)", v, ok)
	}
	for _, key := range []string{"forged", "rotten", "wrongkey", "absent"} {
		if _, ok := get(t, c, key); ok {
			t.Errorf("%s: peer record admitted", key)
		}
	}
	if s := c.Stats(); s.PeerHits != 1 || s.PeerRejects != 3 || s.Misses != 5 {
		t.Fatalf("stats = %+v, want 1 peer hit, 3 peer rejects, 5 misses", s)
	}
	if store.Len() != 1 {
		t.Fatalf("disk holds %d records, want only the admitted one", store.Len())
	}
	if _, ok := get(t, c, "good"); !ok || c.Stats().Hits != 1 {
		t.Fatal("admitted peer record not promoted to memory")
	}
}
