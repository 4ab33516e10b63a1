package simplify

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cert"
	"repro/internal/logic"
	"repro/internal/memwatch"
)

// Result is the prover's verdict on a goal.
type Result int

const (
	// Unknown means no proof was found within the search budget. The prover
	// is sound but incomplete, so Unknown does not mean the goal is false.
	Unknown Result = iota
	// Valid means the goal is proved: its negation, together with the
	// axioms, is unsatisfiable.
	Valid
)

func (r Result) String() string {
	if r == Valid {
		return "Valid"
	}
	return "Unknown"
}

// Options configures the prover's search budget.
type Options struct {
	// MaxRounds bounds the quantifier-instantiation rounds (default 8).
	MaxRounds int
	// MaxInstances bounds the total instantiated clauses (default 20000).
	MaxInstances int
	// MaxDecisions bounds DPLL branching decisions per round (default 200000).
	MaxDecisions int
	// GoalTimeout bounds the wall-clock time of one Prove call (default 5s
	// via DefaultOptions; 0 disables the bound, leaving only the static step
	// budgets above). The deadline is checked at DPLL decision points, unit
	// propagation, e-matching, and Fourier-Motzkin elimination, so a
	// pathological goal (e.g. a trigger loop) returns Unknown with reason
	// ReasonDeadline instead of wedging its worker.
	GoalTimeout time.Duration
	// NonlinearAxioms, when true (the default via DefaultOptions), loads the
	// multiplication sign axioms that Simplify's limited non-linear
	// arithmetic support provides.
	NonlinearAxioms bool
	// LegacySearch selects the original recursive map-based DPLL (string
	// atom keys, theory solvers rebuilt per branch) instead of the interned
	// watched-literal engine with incremental theory state. It exists as a
	// differential oracle: both engines must agree on every Result, and the
	// differential corpus pins that. The engines participate in the cache
	// fingerprint, so cached outcomes never cross between them.
	LegacySearch bool
	// DisableLearning turns off CDCL clause learning in the interned engine,
	// selecting the chronological trail search instead (the -learn=off escape
	// hatch). It also disables cross-goal lemma sharing, which rides on the
	// learned clauses. Like LegacySearch it participates in the cache
	// fingerprint: the engines agree on every verdict (the differential
	// corpus pins that), but their telemetry and countermodels may differ.
	DisableLearning bool
	// DisablePrefilter skips the cheap prefilter tier (ground evaluation,
	// unit-propagation-only, interval analysis) that discharges easy goals
	// before the full engine is built — the -prefilter=off escape hatch.
	DisablePrefilter bool
	// MaxTerms bounds the interned term table built for one goal (0 means
	// unlimited). Unlike the step budgets above, tripping it yields the
	// transient, uncached reason ReasonBudget: how many terms a truncated
	// search interned is an artifact of the cut, not a verdict worth
	// replaying. The legacy engine has no term table and does not enforce it.
	MaxTerms int
	// MaxClauses bounds the ground clause set built for one goal (0 means
	// unlimited); trips to ReasonBudget like MaxTerms.
	MaxClauses int
	// MaxMemoryBytes trips the search when the process's sampled live heap
	// exceeds this watermark (0 means unlimited). The sample is shared and
	// refreshed at most every few tens of milliseconds, so the bound is a
	// soft ceiling against OOM, not an exact per-goal accounting.
	MaxMemoryBytes uint64
	// EmitCertificates makes every Valid verdict carry a replayable proof
	// certificate (Outcome.Certificate): the prefilter tier or CDCL trail
	// is transcribed into internal/cert steps, self-verified by cert.Verify
	// before the outcome is returned, and re-verified when served from the
	// cache. A certificate that fails its replay degrades the outcome to a
	// transient, uncached Unknown with a "cert: ..." reason — the engine
	// never reports a Valid it cannot independently justify. Off by
	// default (emission costs time and memory proportional to the trail).
	// Certificate-less engines (LegacySearch) report Valid without one.
	// Participates in the cache fingerprint.
	EmitCertificates bool
}

// DefaultGoalTimeout is DefaultOptions' per-goal wall-clock bound. The
// paper's obligations discharge in milliseconds; anything near this bound is
// a runaway search, and Simplify's own discipline is to report a resource
// limit rather than hang.
const DefaultGoalTimeout = 5 * time.Second

// DefaultOptions returns the standard search budget.
func DefaultOptions() Options {
	return Options{
		MaxRounds:       8,
		MaxInstances:    20000,
		MaxDecisions:    200000,
		GoalTimeout:     DefaultGoalTimeout,
		NonlinearAxioms: true,
	}
}

// Outcome reports the verdict plus search statistics.
type Outcome struct {
	Result        Result
	Rounds        int
	Instances     int
	GroundClauses int
	Decisions     int
	Reason        string
	// CounterExample lists the literals of a theory-consistent assignment
	// found while the goal remained unrefuted (populated on Unknown when
	// the search saturated). It is the prover's explanation of "why not":
	// a candidate situation in which the hypotheses hold but the goal
	// fails.
	CounterExample []string
	// CacheHit reports that this outcome was served from a memoizing Cache
	// rather than a fresh search. All other fields are the stored search's;
	// the prover is deterministic (up to wall-clock telemetry), so they equal
	// what a re-run would find.
	CacheHit bool
	// TraceHash is a deterministic fingerprint of the interned engine's
	// decision/conflict/learn/backjump/restart event stream (hex, empty for
	// the legacy engine). Identical inputs — goal, axioms, options, and any
	// imported lemmas — produce identical hashes; the determinism regression
	// tests pin this.
	TraceHash string
	// Stats is the goal's search telemetry (duplicating the counters above
	// plus the theory-level ones and wall time, in one aggregatable struct).
	Stats Stats
	// Certificate is the replayable refutation backing a Valid verdict,
	// present only when Options.EmitCertificates is on and the engine
	// supports emission (the interned engines do; the legacy oracle does
	// not). It has already passed cert.Verify once when attached.
	Certificate *cert.Certificate
}

func (o Outcome) String() string {
	return fmt.Sprintf("%s (rounds=%d instances=%d ground=%d decisions=%d)",
		o.Result, o.Rounds, o.Instances, o.GroundClauses, o.Decisions)
}

// Prover holds a background axiom set and proves goals against it.
//
// The axioms are clausified once at construction into an immutable base;
// every Prove call works on its own copy of that base, so a single Prover is
// safe for concurrent use by multiple goroutines. Attach a shared Cache with
// WithCache (before the first concurrent Prove) to memoize outcomes across
// calls and across provers built over the same axioms and options.
type Prover struct {
	axioms []logic.Formula
	opts   Options

	// Immutable clausified base, built once in New.
	baseGround  []logic.Clause
	baseQuant   []logic.Clause
	baseSk      *logic.Skolemizer
	baseErr     error
	fingerprint string

	cache *Cache
}

// New creates a prover over the given background axioms.
func New(axioms []logic.Formula, opts Options) *Prover {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 8
	}
	if opts.MaxInstances == 0 {
		opts.MaxInstances = 20000
	}
	if opts.MaxDecisions == 0 {
		opts.MaxDecisions = 200000
	}
	p := &Prover{axioms: axioms, opts: opts}
	p.buildBase()
	return p
}

// WithCache attaches a memoizing cache and returns p. The cache may be
// shared across provers; outcomes are keyed by (axioms, options, goal), so
// provers over different axiom sets never cross-contaminate. Attach before
// handing the prover to multiple goroutines.
func (p *Prover) WithCache(c *Cache) *Prover {
	p.cache = c
	return p
}

// Cache returns the attached cache, or nil.
func (p *Prover) Cache() *Cache { return p.cache }

// Fork returns a new Prover sharing p's immutable clausified axiom base but
// carrying its own cache attachment. Clausifying a large background theory
// dominates the cost of proving small goals, so callers that repeatedly
// prove against the same (axioms, options) pair should build the base once
// and Fork per run. The fork is as concurrency-safe as the original.
func (p *Prover) Fork(c *Cache) *Prover {
	q := *p
	q.cache = c
	return &q
}

// buildBase clausifies the background axioms (plus the non-linear sign
// axioms when enabled) once, infers triggers for the quantified clauses, and
// fingerprints the (axioms, options) pair for cache keying. Errors are
// deferred to Prove, which historically reported clausification failures as
// Unknown outcomes.
func (p *Prover) buildBase() {
	sk := logic.NewSkolemizer("sk")
	addFormula := func(f logic.Formula) error {
		cs, err := logic.Clausify(f, sk)
		if err != nil {
			return err
		}
		for _, c := range cs {
			if c.IsGround() {
				p.baseGround = append(p.baseGround, c)
			} else {
				if len(c.Triggers) == 0 {
					c.Triggers = inferTriggers(c)
				}
				p.baseQuant = append(p.baseQuant, c)
			}
		}
		return nil
	}
	h := sha256.New()
	fmt.Fprintf(h, "opts|%d|%d|%d|%d|%t|legacy=%t|learn=%t|prefilter=%t|terms=%d|clauses=%d|mem=%d|cert=%t\n",
		p.opts.MaxRounds, p.opts.MaxInstances, p.opts.MaxDecisions,
		p.opts.GoalTimeout, p.opts.NonlinearAxioms, p.opts.LegacySearch,
		!p.opts.DisableLearning, !p.opts.DisablePrefilter,
		p.opts.MaxTerms, p.opts.MaxClauses, p.opts.MaxMemoryBytes,
		p.opts.EmitCertificates)
	for _, ax := range p.axioms {
		fmt.Fprintf(h, "ax|%s\n", ax)
		if err := addFormula(ax); err != nil {
			p.baseErr = err
			return
		}
	}
	if p.opts.NonlinearAxioms {
		for _, ax := range MulSignAxioms() {
			if err := addFormula(ax); err != nil {
				p.baseErr = err
				return
			}
		}
	}
	p.baseSk = sk
	p.fingerprint = hex.EncodeToString(h.Sum(nil))
}

// MulSignAxioms returns the background axioms for the sign of products,
// triggered on product terms. These let the prover discharge obligations
// like "the product of two positives is positive" (the paper's pos and
// nonzero qualifiers) without a complete non-linear procedure.
func MulSignAxioms() []logic.Formula {
	x, y := logic.V("x"), logic.V("y")
	xy := logic.Mul(x, y)
	trig := [][]logic.Term{{xy}}
	zero := logic.Num(0)
	return []logic.Formula{
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Conj(logic.Gt(x, zero), logic.Gt(y, zero)), logic.Gt(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Conj(logic.Lt(x, zero), logic.Lt(y, zero)), logic.Gt(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Conj(logic.Gt(x, zero), logic.Lt(y, zero)), logic.Lt(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Conj(logic.Lt(x, zero), logic.Gt(y, zero)), logic.Lt(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Eq(x, zero), logic.Eq(xy, zero))),
		logic.AllPats([]string{"x", "y"}, trig,
			logic.Imp(logic.Eq(y, zero), logic.Eq(xy, zero))),
	}
}

// Prove attempts to prove goal from the prover's axioms. It is safe to call
// concurrently from multiple goroutines.
func (p *Prover) Prove(goal logic.Formula) Outcome {
	return p.ProveContext(context.Background(), goal)
}

// ProveContext is Prove under a context: the search observes ctx
// cancellation and ctx's deadline (in addition to Options.GoalTimeout,
// whichever is sooner) at its decision points, returning Unknown with reason
// ReasonCanceled or ReasonDeadline. Like Simplify itself, the call always
// terminates and reports: panics inside the search are recovered into an
// Unknown outcome with a "panic: ..." reason rather than escaping to the
// caller.
func (p *Prover) ProveContext(ctx context.Context, goal logic.Formula) Outcome {
	if p.baseErr != nil {
		return Outcome{Result: Unknown, Reason: p.baseErr.Error()}
	}
	var key string
	if p.cache != nil {
		ck := logic.CanonicalString(goal)
		key = p.fingerprint + "\x00" + ck
		if out, ok := p.cache.Get(key); ok {
			// Replay-on-fetch: under EmitCertificates a cache-served Valid is
			// trusted only when it carries a certificate that replays for
			// this goal — regardless of which tier (memory, disk, peer)
			// produced it. A fresh Valid in emit mode always embeds its
			// certificate, so a cert-less Valid here can only be tampered or
			// stale external bytes; it is rejected exactly like a failed
			// replay (mirroring admitPeerOutcome's peer gate), evicted from
			// every tier, and re-proved.
			trusted := true
			if p.opts.EmitCertificates {
				switch {
				case out.Result == Valid && out.Certificate == nil:
					certRejected.Add(1)
					trusted = false
				case out.Certificate != nil:
					trusted = p.replayFetched(out.Certificate, ck)
				}
			}
			if trusted {
				out.CacheHit = true
				return out
			}
			p.cache.Reject(key)
		}
	}
	out := p.proveSafe(ctx, goal)
	// A canceled (or deadline-expired) parent context bypasses the cache no
	// matter what reason the outcome carries: the context's deadline is not
	// part of the cache fingerprint (unlike Options.GoalTimeout), and a search
	// racing its cancellation may conclude with a nominally deterministic
	// reason ("saturated", budget exhaustion) computed from a truncated
	// search. Long-lived callers (qualserve) reuse one cache across requests
	// with per-request deadlines, so a verdict minted under a dying request
	// must never be replayed for a healthy one.
	if p.cache != nil && cacheable(out) && ctx.Err() == nil {
		p.cache.Put(key, out)
	}
	return out
}

// replayFetched re-verifies a certificate served from the cache, checking
// it was minted for this goal. It returns false (treat as a cache miss and
// re-prove) on any rejection, counting it in the process-wide counters.
func (p *Prover) replayFetched(crt *cert.Certificate, canonicalGoal string) bool {
	verr := fpCertReplay.FireErr()
	if verr == nil {
		verr = cert.Verify(crt)
	}
	if verr == nil && crt.Key != canonicalGoal {
		verr = fmt.Errorf("certificate key mismatch")
	}
	if verr != nil {
		certRejected.Add(1)
		return false
	}
	certReplayed.Add(1)
	return true
}

// TransientReason reports whether an Unknown reason describes a transient
// condition — deadline expiry, cancellation, a tripped resource budget, a
// recovered panic, an injected fault, or a certificate replay failure —
// rather than a property of the goal. Transient outcomes must never be
// memoized (a rerun with more budget, or a fixed bug, may legitimately
// differ) and are what qualserve retries and counts toward its
// per-qualifier circuit breaker.
func TransientReason(r string) bool {
	switch r {
	case ReasonDeadline, ReasonCanceled, ReasonBudget:
		return true
	}
	return strings.HasPrefix(r, "panic:") || strings.HasPrefix(r, "fault:") ||
		strings.HasPrefix(r, "cert:")
}

// cacheable reports whether an outcome may be memoized. ProveContext
// additionally refuses to cache any outcome produced under an already-done
// context, whatever its reason.
func cacheable(o Outcome) bool {
	return !TransientReason(o.Reason)
}

// proveRoundHook, when non-nil, runs once per instantiation round. It exists
// for tests that inject faults (panics, delays) into the search.
var proveRoundHook func()

// memSampleStaleness bounds how stale the shared heap sample may be when the
// memory watermark is polled mid-search.
const memSampleStaleness = 50 * time.Millisecond

// installLimits arms tk with the configured space budgets. terms and clauses
// report the current table sizes; either may be nil when the engine has no
// such table (the legacy engine has no interned term table).
func (p *Prover) installLimits(tk *ticker, terms, clauses func() int) {
	if p.opts.MaxTerms <= 0 && p.opts.MaxClauses <= 0 && p.opts.MaxMemoryBytes == 0 {
		return
	}
	tk.limits = func() string {
		if p.opts.MaxTerms > 0 && terms != nil && terms() > p.opts.MaxTerms {
			return ReasonBudget
		}
		if p.opts.MaxClauses > 0 && clauses != nil && clauses() > p.opts.MaxClauses {
			return ReasonBudget
		}
		if p.opts.MaxMemoryBytes > 0 && memwatch.Sample(memSampleStaleness) > p.opts.MaxMemoryBytes {
			return ReasonBudget
		}
		return ""
	}
}

// proveSafe wraps one search with wall-clock telemetry and panic recovery.
func (p *Prover) proveSafe(ctx context.Context, goal logic.Formula) (out Outcome) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Result: Unknown, Reason: fmt.Sprintf("panic: %v", r)}
		}
		// Mirror the legacy counters into the aggregatable Stats view.
		out.Stats.Rounds = out.Rounds
		out.Stats.Decisions = out.Decisions
		out.Stats.Instantiations = out.Instances
		out.Stats.GroundClauses = out.GroundClauses
		out.Stats.WallTime = time.Since(start)
	}()
	tk := newTicker(ctx, start, p.opts.GoalTimeout)
	if p.opts.LegacySearch {
		return p.proveLegacy(goal, tk)
	}
	return p.prove2(goal, tk)
}

// proveLegacy runs one refutation search over a private copy of the
// clausified axiom base extended with the negated goal, using the original
// recursive engine (see Options.LegacySearch). The interned engine's round
// loop is prove2 (prover2.go).
func (p *Prover) proveLegacy(goal logic.Formula, tk *ticker) Outcome {
	sk := p.baseSk.Clone()
	ground := make([]logic.Clause, len(p.baseGround), len(p.baseGround)+16)
	copy(ground, p.baseGround)
	quant := make([]logic.Clause, len(p.baseQuant), len(p.baseQuant)+16)
	copy(quant, p.baseQuant)
	addFormula := func(f logic.Formula) error {
		cs, err := logic.Clausify(f, sk)
		if err != nil {
			return err
		}
		for _, c := range cs {
			if c.IsGround() {
				ground = append(ground, c)
			} else {
				if len(c.Triggers) == 0 {
					c.Triggers = inferTriggers(c)
				}
				quant = append(quant, c)
			}
		}
		return nil
	}
	if err := addFormula(logic.Not{F: goal}); err != nil {
		return Outcome{Result: Unknown, Reason: err.Error()}
	}

	seenClause := map[string]bool{}
	for _, c := range ground {
		seenClause[c.String()] = true
	}
	seenTrichotomy := map[string]bool{}
	out := Outcome{}
	stopped := func() Outcome {
		out.Result = Unknown
		out.Reason = tk.reason
		out.GroundClauses = len(ground)
		return out
	}
	p.installLimits(tk, nil, func() int { return len(ground) })
	var lastModel []string
	for round := 0; round <= p.opts.MaxRounds; round++ {
		out.Rounds = round + 1
		if proveRoundHook != nil {
			proveRoundHook()
		}
		fireInto(fpProveRound, tk)
		if tk.reason != "" {
			return stopped()
		}
		tri := p.trichotomyClauses(ground, seenTrichotomy, seenClause, tk)
		out.Stats.CaseSplits += len(tri)
		ground = append(ground, tri...)
		out.GroundClauses = len(ground)
		s := &search{maxDecisions: p.opts.MaxDecisions, tick: tk}
		unsat := s.refute(ground)
		out.Decisions += s.decisions
		out.Stats.CongruenceMerges += s.merges
		out.Stats.FMEliminations += s.fmElims
		out.Stats.TheoryChecks += s.theoryChecks
		lastModel = s.model
		if tk.reason != "" {
			// A stopped search unwinds as "consistent", so unsat can never be
			// a cancellation artifact; still, report the stop, not a verdict.
			return stopped()
		}
		if unsat {
			out.Result = Valid
			return out
		}
		if round == p.opts.MaxRounds {
			break
		}
		// Saturate: instantiate quantified clauses against the term bank.
		bank := newTermBank()
		for _, c := range ground {
			for _, l := range c.Lits {
				bank.addLiteral(l)
			}
		}
		fireInto(fpEmatchRound, tk)
		if tk.reason != "" {
			return stopped()
		}
		added := 0
		for _, qc := range quant {
			for _, trig := range qc.Triggers {
				subs := matchTrigger(trig, bank, tk)
				if tk.reason != "" {
					return stopped()
				}
				for _, sub := range subs {
					// The clause set grows inside this loop, between the
					// search's own ticks, so poll the budgets here too.
					if tk.stop() {
						return stopped()
					}
					inst := instantiateClause(qc, sub)
					if inst == nil {
						continue
					}
					key := inst.String()
					if seenClause[key] {
						continue
					}
					seenClause[key] = true
					ground = append(ground, *inst)
					added++
					out.Instances++
					if out.Instances >= p.opts.MaxInstances {
						tk.trip(ReasonBudget)
						return stopped()
					}
				}
			}
		}
		if added == 0 {
			out.Result = Unknown
			out.Reason = "saturated without contradiction"
			out.CounterExample = s.model
			return out
		}
	}
	out.Result = Unknown
	out.Reason = "round budget exhausted"
	out.CounterExample = lastModel
	return out
}

// instantiateClause applies sub to qc; returns nil when the result is not
// fully ground (the trigger did not cover every variable).
func instantiateClause(qc logic.Clause, sub map[string]logic.Term) *logic.Clause {
	lits := make([]logic.Literal, len(qc.Lits))
	for i, l := range qc.Lits {
		if l.IsCmp {
			lits[i] = logic.Literal{IsCmp: true, Cmp: logic.Cmp{
				Op: l.Cmp.Op,
				L:  logic.SubstTerm(l.Cmp.L, sub),
				R:  logic.SubstTerm(l.Cmp.R, sub),
			}}
		} else {
			args := make([]logic.Term, len(l.Pred.Args))
			for j, a := range l.Pred.Args {
				args[j] = logic.SubstTerm(a, sub)
			}
			lits[i] = logic.Literal{Neg: l.Neg, Pred: logic.Pred{Name: l.Pred.Name, Args: args}}
		}
	}
	c := logic.Clause{Lits: lits}
	if !c.IsGround() {
		return nil
	}
	return &c
}

// trichotomyClauses adds (l < r) || (l = r) || (l > r) for every equality or
// disequality atom over numeric terms, enabling the case splits that the
// integer theory needs (e.g. x != 0 |- x < 0 or x > 0). A term is numeric if
// it appears under an order comparison or an arithmetic operator, closed
// under equalities.
func (p *Prover) trichotomyClauses(ground []logic.Clause, seenTri, seenClause map[string]bool, tk *ticker) []logic.Clause {
	numeric := map[string]bool{}
	markArith := func(t logic.Term) {
		for _, a := range collectOpaqueAtoms(t) {
			numeric[a.String()] = true
		}
		numeric[t.String()] = true
	}
	type eqPair struct{ l, r logic.Term }
	var eqs []eqPair
	for _, c := range ground {
		for _, lit := range c.Lits {
			if !lit.IsCmp {
				continue
			}
			switch lit.Cmp.Op {
			case logic.LtOp, logic.LeOp, logic.GtOp, logic.GeOp:
				markArith(lit.Cmp.L)
				markArith(lit.Cmp.R)
			case logic.EqOp, logic.NeOp:
				eqs = append(eqs, eqPair{lit.Cmp.L, lit.Cmp.R})
			}
		}
	}
	// Close numeric-ness over eq/ne pairs until fixpoint.
	for changed := true; changed && !tk.stop(); {
		changed = false
		for _, pr := range eqs {
			lk, rk := pr.l.String(), pr.r.String()
			_, lInt := pr.l.(logic.IntLit)
			_, rInt := pr.r.(logic.IntLit)
			ln := numeric[lk] || lInt
			rn := numeric[rk] || rInt
			if ln && !numeric[rk] {
				numeric[rk] = true
				changed = true
			}
			if rn && !numeric[lk] {
				numeric[lk] = true
				changed = true
			}
		}
	}
	var out []logic.Clause
	for _, pr := range eqs {
		_, lInt := pr.l.(logic.IntLit)
		_, rInt := pr.r.(logic.IntLit)
		if !(numeric[pr.l.String()] || lInt) || !(numeric[pr.r.String()] || rInt) {
			continue
		}
		key := pr.l.String() + "|" + pr.r.String()
		if seenTri[key] {
			continue
		}
		seenTri[key] = true
		c := logic.Clause{Lits: []logic.Literal{
			{IsCmp: true, Cmp: logic.Cmp{Op: logic.LtOp, L: pr.l, R: pr.r}},
			{IsCmp: true, Cmp: logic.Cmp{Op: logic.EqOp, L: pr.l, R: pr.r}},
			{IsCmp: true, Cmp: logic.Cmp{Op: logic.GtOp, L: pr.l, R: pr.r}},
		}}
		if !seenClause[c.String()] {
			seenClause[c.String()] = true
			out = append(out, c)
		}
	}
	return out
}

// collectOpaqueAtoms returns the opaque (non-arithmetic) maximal subterms of
// t, mirroring the decomposition done by linearize.
func collectOpaqueAtoms(t logic.Term) []logic.Term {
	var out []logic.Term
	var walk func(t logic.Term)
	walk = func(t logic.Term) {
		app, ok := t.(logic.App)
		if !ok {
			return
		}
		switch app.Fn {
		case "+", "-", "~":
			for _, a := range app.Args {
				walk(a)
			}
		case "*":
			if len(app.Args) == 2 {
				l0 := linearize(app.Args[0])
				l1 := linearize(app.Args[1])
				if len(l0.coeffs) == 0 || len(l1.coeffs) == 0 {
					walk(app.Args[0])
					walk(app.Args[1])
					return
				}
			}
			out = append(out, t)
		default:
			out = append(out, t)
		}
	}
	walk(t)
	return out
}

// search is one DPLL refutation attempt over a fixed ground clause set.
type search struct {
	atoms        map[string]logic.Literal // canonical atom key -> positive atom
	assign       map[string]bool
	decisions    int
	maxDecisions int
	// tick carries the goal's deadline/cancellation state; a tripped ticker
	// makes every branch report "consistent" (sound) so the search unwinds.
	tick *ticker
	// Theory telemetry, accumulated across the branch consistency checks.
	merges       int
	fmElims      int
	theoryChecks int
	// model captures the satisfying assignment of the last consistent
	// branch found (the countermodel candidate reported on Unknown).
	model []string
}

// canonLit normalizes a ground literal to (atom key, negated). NeOp folds
// into a negated EqOp; Gt/Ge swap into Lt/Le so that complementary literals
// share one propositional atom.
func canonLit(l logic.Literal) (string, bool, logic.Literal) {
	if !l.IsCmp {
		key := l.Pred.String()
		pos := logic.Literal{Pred: l.Pred}
		return "P" + key, l.Neg, pos
	}
	op, L, R, neg := l.Cmp.Op, l.Cmp.L, l.Cmp.R, false
	switch op {
	case logic.NeOp:
		op, neg = logic.EqOp, true
	case logic.GtOp:
		op, L, R = logic.LtOp, R, L
	case logic.GeOp:
		op, L, R = logic.LeOp, R, L
	}
	atom := logic.Literal{IsCmp: true, Cmp: logic.Cmp{Op: op, L: L, R: R}}
	key := fmt.Sprintf("C%d|%s|%s", op, L, R)
	return key, neg, atom
}

// refute returns true when the clause set is unsatisfiable modulo theories.
func (s *search) refute(clauses []logic.Clause) bool {
	s.atoms = map[string]logic.Literal{}
	type clit struct {
		key string
		neg bool
	}
	cls := make([][]clit, 0, len(clauses))
	for _, c := range clauses {
		lits := make([]clit, len(c.Lits))
		for i, l := range c.Lits {
			key, neg, atom := canonLit(l)
			s.atoms[key] = atom
			lits[i] = clit{key: key, neg: neg}
		}
		cls = append(cls, lits)
	}
	s.assign = map[string]bool{}
	var rec func() bool
	rec = func() bool {
		if s.decisions > s.maxDecisions {
			return false // budget: treat as consistent (sound)
		}
		if s.tick.stop() {
			return false // deadline/cancel: treat as consistent (sound)
		}
		// Unit propagation to fixpoint.
		trail := []string{}
		undo := func() {
			for _, k := range trail {
				delete(s.assign, k)
			}
		}
		for {
			progress := false
			for _, c := range cls {
				if s.tick.stop() {
					undo()
					return false
				}
				unassigned := -1
				satisfied := false
				nUnassigned := 0
				for i, l := range c {
					v, ok := s.assign[l.key]
					if !ok {
						nUnassigned++
						unassigned = i
						continue
					}
					if v != l.neg { // literal true
						satisfied = true
						break
					}
				}
				if satisfied {
					continue
				}
				if nUnassigned == 0 {
					undo()
					return true // propositional conflict
				}
				if nUnassigned == 1 {
					l := c[unassigned]
					s.assign[l.key] = !l.neg
					trail = append(trail, l.key)
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		if s.theoryConflict() {
			undo()
			return true
		}
		// Pick an unassigned atom from an unsatisfied clause.
		pick := ""
		for _, c := range cls {
			satisfied := false
			cand := ""
			for _, l := range c {
				v, ok := s.assign[l.key]
				if !ok {
					if cand == "" {
						cand = l.key
					}
					continue
				}
				if v != l.neg {
					satisfied = true
					break
				}
			}
			if !satisfied && cand != "" {
				pick = cand
				break
			}
		}
		if pick == "" {
			// All clauses satisfied and theory consistent: countermodel.
			s.captureModel()
			undo()
			return false
		}
		s.decisions++
		fireInto(fpSearchDecision, s.tick)
		s.assign[pick] = true
		if !rec() {
			delete(s.assign, pick)
			undo()
			return false
		}
		s.assign[pick] = false
		if !rec() {
			delete(s.assign, pick)
			undo()
			return false
		}
		delete(s.assign, pick)
		undo()
		return true
	}
	return rec()
}

// captureModel snapshots the current assignment as readable literals.
func (s *search) captureModel() {
	var out []string
	for key, val := range s.assign {
		atom := s.atoms[key]
		lit := atom
		if !val {
			lit = atom.Negated()
		}
		out = append(out, lit.String())
	}
	sort.Strings(out)
	s.model = out
}

// theoryConflict rebuilds the EUF and arithmetic solvers from the current
// assignment and reports inconsistency.
func (s *search) theoryConflict() bool {
	eg := newEgraph()
	ar := newArithSolver()
	ar.tick = s.tick
	s.theoryChecks++
	defer func() {
		s.merges += eg.merges
		s.fmElims += ar.elims
	}()
	var arithAtomTerms []logic.Term
	assertCmpBoth := func(op logic.CmpOp, L, R logic.Term) {
		switch op {
		case logic.EqOp:
			eg.assertEq(L, R)
			ar.assertCmp(logic.EqOp, L, R)
		case logic.NeOp:
			eg.assertNe(L, R, L.String()+" != "+R.String())
		default:
			ar.assertCmp(op, L, R)
			arithAtomTerms = append(arithAtomTerms, collectOpaqueAtoms(L)...)
			arithAtomTerms = append(arithAtomTerms, collectOpaqueAtoms(R)...)
		}
	}
	for key, val := range s.assign {
		atom := s.atoms[key]
		if atom.IsCmp {
			op := atom.Cmp.Op
			if !val {
				op = op.Negate()
			}
			assertCmpBoth(op, atom.Cmp.L, atom.Cmp.R)
		} else {
			eg.assertPred(atom.Pred, val)
		}
	}
	if bad, _ := eg.inconsistent(); bad {
		return true
	}
	// EUF -> LA propagation: equalities among arithmetic atoms, and integer
	// values for atoms congruent to literals.
	// Intern every arithmetic atom before computing representatives: a later
	// intern can trigger the congruence merge that relates earlier atoms.
	type atomEntry struct {
		key string
		id  nodeID
	}
	var entries []atomEntry
	seenAtom := map[string]bool{}
	for _, t := range arithAtomTerms {
		k := t.String()
		if seenAtom[k] {
			continue
		}
		seenAtom[k] = true
		entries = append(entries, atomEntry{key: k, id: eg.internTerm(t)})
	}
	classOf := map[nodeID][]string{}
	for _, en := range entries {
		r := eg.find(en.id)
		classOf[r] = append(classOf[r], en.key)
	}
	if bad, _ := eg.inconsistent(); bad {
		// Interning alone cannot create conflicts, but congruence
		// propagation from new terms can.
		return true
	}
	for rep, keys := range classOf {
		for i := 1; i < len(keys); i++ {
			ar.assertEqAtoms(keys[0], keys[i])
		}
		// If the class contains an integer literal, pin the atoms to it.
		for id, n := range eg.nodes {
			if n.isInt && eg.find(nodeID(id)) == eg.find(rep) {
				for _, k := range keys {
					e1 := newLinExpr().addAtom(k, 1)
					e1.consts = -n.intVal
					ar.push(e1)
					e2 := newLinExpr().addAtom(k, -1)
					e2.consts = n.intVal
					ar.push(e2)
				}
				break
			}
		}
	}
	return ar.inconsistent()
}
