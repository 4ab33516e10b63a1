package checker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/cminor"
	"repro/internal/faults"
	"repro/internal/qdl"
	"repro/internal/tiercache"
)

// This file implements content-addressed, function-granular result caching:
// the unit of reuse for a long-lived checking service is one function body,
// so that editing a file re-checks only the functions whose text changed.
//
// A cached entry is keyed by two hashes:
//
//   - the function fingerprint: the position-free rendering of the function
//     (cminor.FuncString), so a body that merely moved within the file still
//     hits;
//   - the context key: everything outside the body the walk can observe —
//     the qualifier registry fingerprint, the checker options that change
//     verdicts (flow sensitivity), the program interface (struct layouts,
//     global declarations, every function signature), the address-taken
//     variable set consulted by flow refinement, and the returns-fresh facts
//     (the one piece of cross-function body information the checker uses,
//     via the section 2.2.1 fresh-assignment extension).
//
// Diagnostics are stored with line numbers relative to the function's own
// first line and rebased on replay, so an unchanged function shifted by an
// edit above it replays its warnings at the new positions.

// DefaultFuncCacheCapacity bounds a cache created with capacity <= 0.
const DefaultFuncCacheCapacity = 8192

// FuncCacheStats is a snapshot of a function cache's counters (see
// tiercache.Stats).
type FuncCacheStats = tiercache.Stats

// FuncCache is a thread-safe tiered cache of per-function checking results
// (memory LRU, optional disk and peer tiers; see persist.go for the codec).
// Share one across CheckWithCache calls (and across programs — the context
// key isolates unrelated programs and registries) to make repeated checks of
// mostly-unchanged sources cheap. Concurrent lookups of one uncached key
// coalesce: the first caller walks while the rest wait for its result.
type FuncCache struct {
	*tiercache.Cache[*funcCacheEntry]
}

// funcCacheEntry is the replayable outcome of walking one function body.
type funcCacheEntry struct {
	diags []relDiag
	// The statistic deltas a body walk contributes (the program-level
	// counters — dereferences, annotations, ref uses — are recomputed by the
	// surrounding CheckWithCache pass and never cached).
	restrictChecks   int
	restrictFailures int
	memoHits         int
	memoMisses       int
	// seal is a content checksum over the replayable payload above,
	// computed when the entry is built and re-verified on every memory hit
	// and disk or peer load: a corrupted entry is rejected and re-walked
	// instead of replayed.
	seal uint64
}

// sealEntry checksums an entry's replayable payload (diagnostics and
// statistic deltas; the key is excluded — it addresses, the seal attests).
func sealEntry(e *funcCacheEntry) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d\x00", e.restrictChecks, e.restrictFailures, e.memoHits, e.memoMisses)
	for _, d := range e.diags {
		fmt.Fprintf(h, "%d|%d|%s|%s\x00", d.relLine, d.col, d.code, d.msg)
	}
	return h.Sum64()
}

// relDiag is a diagnostic with its line stored relative to the function's
// first line.
type relDiag struct {
	relLine int
	col     int
	code    string
	msg     string
}

// NewFuncCache returns an empty cache holding at most capacity function
// results (DefaultFuncCacheCapacity when capacity <= 0).
func NewFuncCache(capacity int) *FuncCache {
	if capacity <= 0 {
		capacity = DefaultFuncCacheCapacity
	}
	return &FuncCache{tiercache.New(capacity, funcEntryCodec)}
}

// fpCacheReplay injects faults into the cache-replay path (see
// checkFuncCached); any fired fault is treated as a miss.
var fpCacheReplay = faults.Register("checker.cache.replay")

// ForEach calls fn with every cached entry's diagnostic codes, under the
// cache lock, without touching recency or the counters. Chaos tests use it to
// assert that no transient ("internal") result was ever stored.
func (c *FuncCache) ForEach(fn func(key string, diagCodes []string)) {
	c.Cache.ForEach(func(key string, e *funcCacheEntry) {
		codes := make([]string, len(e.diags))
		for i, d := range e.diags {
			codes[i] = d.code
		}
		fn(key, codes)
	})
}

// funcKey is the full cache key for one function under one context.
func funcKey(ctxKey string, f *cminor.FuncDef) string {
	h := sha256.New()
	io.WriteString(h, ctxKey)
	io.WriteString(h, "\x00")
	io.WriteString(h, cminor.FuncString(f))
	return hex.EncodeToString(h.Sum(nil))
}

// contextKey hashes everything a function-body walk can observe besides the
// body itself. It must be computed after prepareFlow (it hashes the
// address-taken set) and conservatively includes the returns-fresh facts,
// which depend on other functions' bodies.
func (en *engine) contextKey(opts Options) string {
	h := sha256.New()
	io.WriteString(h, "reg\x00")
	io.WriteString(h, en.reg.Fingerprint())
	fmt.Fprintf(h, "\x00opts\x00flow=%v\x00", opts.FlowSensitive)
	io.WriteString(h, "structs\x00")
	for _, st := range en.prog.Structs {
		fmt.Fprintf(h, "struct %s{", st.Name)
		for _, f := range st.Fields {
			fmt.Fprintf(h, "%s %s;", f.Type, f.Name)
		}
		io.WriteString(h, "}\x00")
	}
	io.WriteString(h, "globals\x00")
	for _, g := range en.prog.Globals {
		io.WriteString(h, cminor.DeclString(g))
		io.WriteString(h, "\x00")
	}
	io.WriteString(h, "sigs\x00")
	for _, f := range en.prog.Funcs {
		io.WriteString(h, cminor.HeaderString(f))
		if f.Body == nil {
			io.WriteString(h, " <nobody>")
		}
		io.WriteString(h, "\x00")
	}
	// Flow refinement consults the address-taken set, which any function
	// body can extend.
	io.WriteString(h, "addrtaken\x00")
	taken := make([]string, 0, len(en.addrTaken))
	for name := range en.addrTaken {
		taken = append(taken, name)
	}
	sort.Strings(taken)
	for _, name := range taken {
		io.WriteString(h, name)
		io.WriteString(h, "\x00")
	}
	// Returns-fresh facts: for every qualifier with a fresh assign clause,
	// whether each function provably returns a fresh reference. This is the
	// only cross-function body information a walk consumes, so capturing the
	// facts (rather than the bodies) keeps unrelated edits from invalidating
	// every function.
	io.WriteString(h, "fresh\x00")
	for _, d := range en.reg.Defs() {
		if !hasFreshAssign(d) {
			continue
		}
		for _, f := range en.prog.Funcs {
			fmt.Fprintf(h, "%s|%s=%v\x00", f.Name, d.Name, en.returnsFresh(f.Name, d.Name))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hasFreshAssign reports whether d declares a fresh assign clause.
func hasFreshAssign(d *qdl.Def) bool {
	for _, cl := range d.Assigns {
		if _, ok := cl.Pat.(qdl.PFresh); ok {
			return true
		}
	}
	return false
}

// checkFuncCached walks one function on a fresh child engine, consulting and
// populating the function cache. The receiver must be a freshly created
// child (empty diagnostics and zero stats), so its whole post-walk state is
// exactly the function's contribution. Concurrent calls on one key coalesce
// to a single walk (see tiercache.Cache.Lookup).
func (en *engine) checkFuncCached(f *cminor.FuncDef) {
	if en.fc == nil {
		en.safeCheckFunc(f)
		return
	}
	// FireErr, not Fire: the parallel walk's pool workers have no recovery
	// around the cache path, so an injected replay panic must be contained
	// here. Any replay fault degrades to a fresh walk — never a crash, never
	// a wrong replay. The degraded walk bypasses the flight map entirely, so
	// an injected fault can neither strand waiters nor poison the fill.
	if err := fpCacheReplay.FireErr(); err != nil {
		en.stats.FuncCacheMisses++
		en.safeCheckFunc(f)
		return
	}
	key := funcKey(en.ctxKey, f)
	entry, ok, fl, leader := en.fc.Lookup(key)
	if ok {
		en.stats.FuncCacheHits++
		en.replayEntry(entry, f)
		return
	}
	if leader {
		// Lookup already probed the external tiers (disk, then peers) on the
		// leader path, so concurrent lookups of one key cost one disk read or
		// one peer fetch, not N.
		en.stats.FuncCacheMisses++
		en.safeCheckFunc(f)
		stored, ok := en.entryFromWalk(f)
		en.fc.Finish(key, fl, stored, ok)
		return
	}
	// Waiter: another caller is walking this exact function under this exact
	// context. Share its result instead of duplicating the walk — unless our
	// run is canceled first, in which case we return with nothing (the run's
	// Result.Err marks it inconclusive, same as any unwalked function).
	var done <-chan struct{}
	if en.ctx != nil {
		done = en.ctx.Done()
	}
	select {
	case <-fl.Done():
	case <-done:
		return
	}
	if shared, ok := fl.Result(); ok {
		en.stats.FuncCacheCoalesced++
		en.replayEntry(shared, f)
		return
	}
	// The leader's walk was not replayable (transient "internal" outcome);
	// walk independently rather than replay a result the cache refused.
	en.stats.FuncCacheMisses++
	en.safeCheckFunc(f)
}

// replayEntry rebases and appends a cached function's diagnostics and
// statistic deltas onto the (child) engine.
func (en *engine) replayEntry(entry *funcCacheEntry, f *cminor.FuncDef) {
	for _, d := range entry.diags {
		en.diags = append(en.diags, Diagnostic{
			Pos:  cminor.Pos{File: f.Pos.File, Line: f.Pos.Line + d.relLine, Col: d.col},
			Code: d.code,
			Msg:  d.msg,
		})
	}
	en.stats.RestrictChecks += entry.restrictChecks
	en.stats.RestrictFailures += entry.restrictFailures
	en.stats.MemoHits += entry.memoHits
	en.stats.MemoMisses += entry.memoMisses
}

// entryFromWalk converts a completed walk's child-engine state into a cache
// entry. It refuses (ok=false) when the result is not safely replayable:
// an "internal" diagnostic records a recovered panic (transient, like the
// prover's uncached panic outcomes), and a diagnostic positioned outside the
// function's own span cannot be rebased by line offset.
func (en *engine) entryFromWalk(f *cminor.FuncDef) (*funcCacheEntry, bool) {
	entry := &funcCacheEntry{
		diags:            make([]relDiag, 0, len(en.diags)),
		restrictChecks:   en.stats.RestrictChecks,
		restrictFailures: en.stats.RestrictFailures,
		memoHits:         en.stats.MemoHits,
		memoMisses:       en.stats.MemoMisses,
	}
	for _, d := range en.diags {
		if d.Code == "internal" {
			return nil, false
		}
		if d.Pos.File != f.Pos.File || d.Pos.Line < f.Pos.Line {
			return nil, false
		}
		entry.diags = append(entry.diags, relDiag{
			relLine: d.Pos.Line - f.Pos.Line,
			col:     d.Pos.Col,
			code:    d.Code,
			msg:     d.Msg,
		})
	}
	entry.seal = sealEntry(entry)
	return entry, true
}
