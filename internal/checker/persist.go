package checker

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cachedisk"
	"repro/internal/tiercache"
)

// The function namespace's tiercache codec. cachedisk's record framing
// supplies the key binding and checksum, this codec supplies the entry
// layout, and the content seal — persisted alongside the payload and
// recomputed over the decoded entry on every load, and over the memory
// entry on every hit — supplies the semantic integrity check. A record
// whose recomputed seal disagrees with its stored seal is rejected and
// evicted no matter how clean its checksums were: the seal attests to what
// the walk produced, not to what the disk stored.
//
// Trust model: seal and checksums are plain FNV-64a — recomputable by any
// writer — so they detect corruption (bit rot, torn writes, stale formats),
// NOT deliberate tampering. Unlike prover outcomes, a function entry
// carries no certificate to replay, so an entry is only as trustworthy as
// its source: the local disk (same trust domain as the process), or a peer
// that authenticated itself with the shared fleet secret — the server layer
// HMACs every served record and only wires the func-namespace peer fetch
// when a secret is configured (server.Config.CacheSecret).
var funcEntryCodec = tiercache.Codec[*funcCacheEntry]{
	Encode: encodeFuncEntry,
	Decode: decodeFuncEntry,
	Intact: func(e *funcCacheEntry) bool { return sealEntry(e) == e.seal },
}

const (
	funcEntryMagic   = "QFE"
	funcEntryVersion = byte(1)
	// maxPersistDiags bounds the decoded diagnostic count so a hostile
	// record cannot demand a giant allocation.
	maxPersistDiags = 1 << 16
)

// encodeFuncEntry serializes an entry's replayable payload plus its content
// seal. The key is not encoded — cachedisk's record framing binds it.
func encodeFuncEntry(e *funcCacheEntry) []byte {
	b := make([]byte, 0, 64)
	b = append(b, funcEntryMagic...)
	b = append(b, funcEntryVersion)
	b = binary.AppendUvarint(b, uint64(e.restrictChecks))
	b = binary.AppendUvarint(b, uint64(e.restrictFailures))
	b = binary.AppendUvarint(b, uint64(e.memoHits))
	b = binary.AppendUvarint(b, uint64(e.memoMisses))
	b = binary.AppendUvarint(b, uint64(len(e.diags)))
	for _, d := range e.diags {
		b = binary.AppendUvarint(b, uint64(d.relLine))
		b = binary.AppendUvarint(b, uint64(d.col))
		b = tiercache.AppendString(b, d.code)
		b = tiercache.AppendString(b, d.msg)
	}
	return binary.BigEndian.AppendUint64(b, e.seal)
}

// decodeFuncEntry is encodeFuncEntry's inverse. Beyond framing, it verifies
// the content seal: sealEntry over the decoded fields must reproduce the
// stored seal exactly, so any accidental mutation that survives the outer
// checksums (or a record minted by a buggy writer) is refused. The seal is
// not authentication — a deliberate forger recomputes it trivially; keeping
// forgers out of the fetch path is the transport's job (see the trust model
// above).
func decodeFuncEntry(data []byte) (*funcCacheEntry, error) {
	d := tiercache.NewDecoder(data)
	if err := d.Header(funcEntryMagic, funcEntryVersion); err != nil {
		return nil, err
	}
	e := &funcCacheEntry{
		restrictChecks:   int(d.Uvarint()),
		restrictFailures: int(d.Uvarint()),
		memoHits:         int(d.Uvarint()),
		memoMisses:       int(d.Uvarint()),
	}
	n := d.Uvarint()
	if n > maxPersistDiags {
		return nil, fmt.Errorf("diagnostic list too long (%d)", n)
	}
	e.diags = make([]relDiag, 0, min(int(n), 256))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		e.diags = append(e.diags, relDiag{
			relLine: int(d.Uvarint()),
			col:     int(d.Uvarint()),
			code:    d.String(),
			msg:     d.String(),
		})
	}
	storedSeal := d.Uint64()
	if err := d.End(); err != nil {
		return nil, err
	}
	// A persisted entry must never replay a transient walk.
	for _, dg := range e.diags {
		if dg.code == "internal" {
			return nil, fmt.Errorf("transient %q diagnostic in persisted entry", dg.code)
		}
	}
	if got := sealEntry(e); got != storedSeal {
		return nil, fmt.Errorf("content seal mismatch (stored %x, recomputed %x)", storedSeal, got)
	}
	e.seal = storedSeal
	return e, nil
}

// WithDisk attaches a disk tier: leader fills probe store before walking,
// and every stored entry is persisted. Attach before sharing the cache
// across goroutines. A nil store is a no-op.
func (c *FuncCache) WithDisk(store *cachedisk.Store) *FuncCache {
	c.Cache.WithDisk(store)
	return c
}

// WithPeerFetch attaches a peer tier consulted when the disk tier misses.
// Attach before sharing the cache across goroutines.
func (c *FuncCache) WithPeerFetch(fetch tiercache.PeerFetch) *FuncCache {
	c.Cache.WithPeerFetch(fetch)
	return c
}
