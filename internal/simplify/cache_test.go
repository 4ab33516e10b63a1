package simplify

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/logic"
)

func TestProveCacheHit(t *testing.T) {
	p := New(nil, DefaultOptions()).WithCache(NewCache(0))
	goal := mustParse(t, "(OR p (NOT p))")

	first := p.Prove(goal)
	if first.CacheHit {
		t.Error("first Prove reported a cache hit")
	}
	second := p.Prove(goal)
	if !second.CacheHit {
		t.Error("second Prove of an identical formula missed the cache")
	}
	// Everything but the hit marker must match the original search.
	second.CacheHit = false
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached outcome differs: first %+v, second %+v", first, second)
	}
	if s := p.Cache().Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestProveCacheAlphaEquivalence(t *testing.T) {
	// The cache keys goals by logic.CanonicalString, so goals identical up
	// to bound-variable names share one entry.
	p := New(nil, DefaultOptions()).WithCache(NewCache(0))
	a := p.Prove(mustParse(t, "(FORALL (x) (IMPLIES (p x) (p x)))"))
	b := p.Prove(mustParse(t, "(FORALL (y) (IMPLIES (p y) (p y)))"))
	if a.CacheHit {
		t.Error("first goal reported a cache hit")
	}
	if !b.CacheHit {
		t.Error("alpha-equivalent goal missed the cache")
	}
	if a.Result != b.Result {
		t.Errorf("results differ: %s vs %s", a.Result, b.Result)
	}
}

func TestProveCacheDistinguishesAxioms(t *testing.T) {
	// Two provers with different axiom bases may share one cache: the key
	// includes the axiom fingerprint, so "p" proven under axiom p must not
	// leak into the empty-axioms prover.
	shared := NewCache(0)
	withAxiom := New([]logic.Formula{mustParse(t, "p")}, DefaultOptions()).WithCache(shared)
	bare := New(nil, DefaultOptions()).WithCache(shared)

	if out := withAxiom.Prove(mustParse(t, "p")); out.Result != Valid {
		t.Fatalf("axiom p should prove p, got %s", out)
	}
	out := bare.Prove(mustParse(t, "p"))
	if out.CacheHit {
		t.Error("prover with different axioms hit the other prover's entry")
	}
	if out.Result != Unknown {
		t.Errorf("bare prover proved p: %s", out)
	}
}

func TestProveCacheDistinguishesOptions(t *testing.T) {
	shared := NewCache(0)
	a := New(nil, DefaultOptions()).WithCache(shared)
	opts := DefaultOptions()
	opts.MaxRounds++
	b := New(nil, opts).WithCache(shared)

	goal := "(OR p (NOT p))"
	a.Prove(mustParse(t, goal))
	if out := b.Prove(mustParse(t, goal)); out.CacheHit {
		t.Error("prover with different search options hit the other configuration's entry")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(1)
	p := New(nil, DefaultOptions()).WithCache(c)
	p.Prove(mustParse(t, "(OR p (NOT p))"))
	p.Prove(mustParse(t, "(OR q (NOT q))")) // evicts the first entry
	if got := c.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if out := p.Prove(mustParse(t, "(OR p (NOT p))")); out.CacheHit {
		t.Error("evicted entry still served")
	}
}

// TestProveConcurrentSharedCache exercises concurrent Prove calls on one
// prover and one cache (run under -race) and checks the verdicts match a
// serial, uncached prover's.
func TestProveConcurrentSharedCache(t *testing.T) {
	goals := []string{
		"(OR p (NOT p))",
		"(IMPLIES (AND (EQ a b) (EQ b c)) (EQ (f a) (f c)))",
		"(IMPLIES (AND (> x 0) (>= y x)) (> y 0))",
		"(FORALL (x) (IMPLIES (p x) (p x)))",
		"p",
		"(IMPLIES (EQ (f a) (f b)) (EQ a b))",
	}
	serial := New(nil, DefaultOptions())
	want := make([]Result, len(goals))
	for i, g := range goals {
		want[i] = serial.Prove(mustParse(t, g)).Result
	}

	shared := New(nil, DefaultOptions()).WithCache(NewCache(0))
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(goals))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, g := range goals {
				f, err := logic.ParseFormula(g)
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := shared.Prove(f).Result; got != want[i] {
					errs <- "goal " + g + ": got " + got.String() + ", want " + want[i].String()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s := shared.Cache().Stats(); s.Hits == 0 {
		t.Error("no cache hits across concurrent repeated goals")
	}
}
