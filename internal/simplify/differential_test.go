package simplify

import (
	"testing"

	"repro/internal/logic"
)

// This file is the prover's differential oracle: random ground EUF+LA
// formulas are proved by the full search stack (DPLL + congruence closure +
// Fourier-Motzkin + case splits) and cross-checked against a brute-force
// model enumerator over a small bounded domain. The prover is sound and
// incomplete, so the checkable direction is: whenever Prove says Valid, no
// interpretation in the bounded family may falsify the formula. A single
// discrepancy is an unsoundness bug.
//
// The interpretation family is a genuine sub-family of first-order models
// over the integers: the constants a, b, c take values in {-1, 0, 1},
// arithmetic is true integer arithmetic, and the uninterpreted symbols f
// (unary function) and P (unary predicate) are interpreted by arbitrary
// mod-3-periodic tables — legitimate functions on ℤ, so validity implies
// truth in every one of them.

// diffRNG is a tiny deterministic LCG so the corpus is identical on every
// run and across platforms.
type diffRNG struct{ s uint64 }

func (r *diffRNG) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// diffConsts are the ground constant symbols formulas are built from.
var diffConsts = []string{"a", "b", "c"}

// genGroundTerm builds a random ground term of the given depth.
func genGroundTerm(r *diffRNG, depth int) logic.Term {
	if depth <= 0 {
		if r.intn(2) == 0 {
			return logic.Const(diffConsts[r.intn(len(diffConsts))])
		}
		return logic.IntLit{Value: int64(r.intn(3) - 1)}
	}
	switch r.intn(6) {
	case 0:
		return logic.Const(diffConsts[r.intn(len(diffConsts))])
	case 1:
		return logic.IntLit{Value: int64(r.intn(3) - 1)}
	case 2:
		return logic.Fn("f", genGroundTerm(r, depth-1))
	case 3:
		return logic.Fn("+", genGroundTerm(r, depth-1), genGroundTerm(r, depth-1))
	case 4:
		return logic.Fn("-", genGroundTerm(r, depth-1), genGroundTerm(r, depth-1))
	default:
		return logic.Fn("*", genGroundTerm(r, depth-1), genGroundTerm(r, depth-1))
	}
}

// genGroundAtom builds a random comparison or predicate atom.
func genGroundAtom(r *diffRNG, depth int) logic.Formula {
	if r.intn(4) == 0 {
		return logic.P("P", genGroundTerm(r, depth))
	}
	ops := []logic.CmpOp{logic.EqOp, logic.NeOp, logic.LtOp, logic.LeOp, logic.GtOp, logic.GeOp}
	return logic.Cmp{Op: ops[r.intn(len(ops))], L: genGroundTerm(r, depth), R: genGroundTerm(r, depth)}
}

// genGroundFormula builds a random ground formula. The distribution is
// biased toward valid shapes (φ⇒φ, φ∨¬φ, (φ∧ψ)⇒φ) so the prover answers
// Valid often enough for the oracle check to have teeth.
func genGroundFormula(r *diffRNG, depth int) logic.Formula {
	if depth <= 0 {
		return genGroundAtom(r, 1)
	}
	switch r.intn(10) {
	case 0, 1:
		return genGroundAtom(r, depth)
	case 2:
		return logic.Not{F: genGroundFormula(r, depth-1)}
	case 3:
		return logic.Conj(genGroundFormula(r, depth-1), genGroundFormula(r, depth-1))
	case 4:
		return logic.Disj(genGroundFormula(r, depth-1), genGroundFormula(r, depth-1))
	case 5:
		return logic.Imp(genGroundFormula(r, depth-1), genGroundFormula(r, depth-1))
	case 6, 7: // φ ⇒ φ and (φ ∧ ψ) ⇒ φ
		phi := genGroundFormula(r, depth-1)
		if r.intn(2) == 0 {
			return logic.Imp(phi, phi)
		}
		return logic.Imp(logic.Conj(phi, genGroundFormula(r, depth-1)), phi)
	default: // φ ∨ ¬φ
		phi := genGroundFormula(r, depth-1)
		return logic.Disj(phi, logic.Not{F: phi})
	}
}

// diffInterp is one bounded-domain interpretation.
type diffInterp struct {
	consts map[string]int64
	fTable [3]int64
	pTable [3]bool
}

func mod3(v int64) int { return int(((v % 3) + 3) % 3) }

func (in *diffInterp) evalTerm(t logic.Term) int64 {
	switch t := t.(type) {
	case logic.IntLit:
		return t.Value
	case logic.App:
		switch t.Fn {
		case "+":
			var s int64
			for _, a := range t.Args {
				s += in.evalTerm(a)
			}
			return s
		case "-":
			if len(t.Args) == 1 {
				return -in.evalTerm(t.Args[0])
			}
			return in.evalTerm(t.Args[0]) - in.evalTerm(t.Args[1])
		case "~":
			return -in.evalTerm(t.Args[0])
		case "*":
			return in.evalTerm(t.Args[0]) * in.evalTerm(t.Args[1])
		case "f":
			return in.fTable[mod3(in.evalTerm(t.Args[0]))]
		default:
			if v, ok := in.consts[t.Fn]; ok && len(t.Args) == 0 {
				return v
			}
			panic("differential oracle: unexpected term " + t.String())
		}
	}
	panic("differential oracle: unexpected term kind")
}

func (in *diffInterp) evalFormula(f logic.Formula) bool {
	switch f := f.(type) {
	case logic.TrueF:
		return true
	case logic.FalseF:
		return false
	case logic.Cmp:
		l, r := in.evalTerm(f.L), in.evalTerm(f.R)
		switch f.Op {
		case logic.EqOp:
			return l == r
		case logic.NeOp:
			return l != r
		case logic.LtOp:
			return l < r
		case logic.LeOp:
			return l <= r
		case logic.GtOp:
			return l > r
		case logic.GeOp:
			return l >= r
		}
	case logic.Pred:
		return in.pTable[mod3(in.evalTerm(f.Args[0]))]
	case logic.Not:
		return !in.evalFormula(f.F)
	case logic.And:
		for _, g := range f.Fs {
			if !in.evalFormula(g) {
				return false
			}
		}
		return true
	case logic.Or:
		for _, g := range f.Fs {
			if in.evalFormula(g) {
				return true
			}
		}
		return false
	case logic.Implies:
		return !in.evalFormula(f.Hyp) || in.evalFormula(f.Concl)
	case logic.Iff:
		return in.evalFormula(f.L) == in.evalFormula(f.R)
	}
	panic("differential oracle: unexpected formula kind")
}

// diffSymbols records which interpreted-by-table symbols a formula mentions,
// so the enumeration only ranges over dimensions that matter.
type diffSymbols struct {
	consts map[string]bool
	usesF  bool
	usesP  bool
}

func collectSymbols(f logic.Formula, out *diffSymbols) {
	var walkTerm func(t logic.Term)
	walkTerm = func(t logic.Term) {
		if app, ok := t.(logic.App); ok {
			switch app.Fn {
			case "f":
				out.usesF = true
			case "+", "-", "~", "*":
			default:
				if len(app.Args) == 0 {
					out.consts[app.Fn] = true
				}
			}
			for _, a := range app.Args {
				walkTerm(a)
			}
		}
	}
	switch f := f.(type) {
	case logic.Cmp:
		walkTerm(f.L)
		walkTerm(f.R)
	case logic.Pred:
		out.usesP = true
		for _, a := range f.Args {
			walkTerm(a)
		}
	case logic.Not:
		collectSymbols(f.F, out)
	case logic.And:
		for _, g := range f.Fs {
			collectSymbols(g, out)
		}
	case logic.Or:
		for _, g := range f.Fs {
			collectSymbols(g, out)
		}
	case logic.Implies:
		collectSymbols(f.Hyp, out)
		collectSymbols(f.Concl, out)
	case logic.Iff:
		collectSymbols(f.L, out)
		collectSymbols(f.R, out)
	}
}

// findCounterModel enumerates every interpretation in the bounded family
// (restricted to the symbols f mentions) and returns one falsifying f, or
// nil when f holds in all of them.
func findCounterModel(f logic.Formula) *diffInterp {
	syms := diffSymbols{consts: map[string]bool{}}
	collectSymbols(f, &syms)
	var names []string
	for _, c := range diffConsts {
		if syms.consts[c] {
			names = append(names, c)
		}
	}
	fTables := 1
	if syms.usesF {
		fTables = 27
	}
	pTables := 1
	if syms.usesP {
		pTables = 8
	}
	constAssignments := 1
	for range names {
		constAssignments *= 3
	}
	for ci := 0; ci < constAssignments; ci++ {
		consts := map[string]int64{}
		v := ci
		for _, n := range names {
			consts[n] = int64(v%3 - 1)
			v /= 3
		}
		for fi := 0; fi < fTables; fi++ {
			var fTable [3]int64
			fv := fi
			for k := 0; k < 3; k++ {
				fTable[k] = int64(fv%3 - 1)
				fv /= 3
			}
			for pi := 0; pi < pTables; pi++ {
				var pTable [3]bool
				pv := pi
				for k := 0; k < 3; k++ {
					pTable[k] = pv%2 == 1
					pv /= 2
				}
				in := &diffInterp{consts: consts, fTable: fTable, pTable: pTable}
				if !in.evalFormula(f) {
					return in
				}
			}
		}
	}
	return nil
}

// diffProver builds the prover used by the differential tests: no background
// axioms (the formulas are self-contained), default budgets.
func diffProver() *Prover {
	return New(nil, DefaultOptions())
}

// checkAgainstOracle proves f and, when the prover claims validity, verifies
// that claim against the bounded-model enumeration. Returns whether the
// prover said Valid.
func checkAgainstOracle(t *testing.T, prover *Prover, f logic.Formula) bool {
	t.Helper()
	out := prover.Prove(f)
	if out.Result != Valid {
		return false
	}
	if cm := findCounterModel(f); cm != nil {
		t.Fatalf("prover unsound: claimed Valid but counter-model exists\n  formula: %s\n  consts: %v  f-table: %v  P-table: %v",
			f, cm.consts, cm.fTable, cm.pTable)
	}
	return true
}

// TestDifferentialProveGround runs the fixed-seed corpus: 10k random ground
// formulas, every Valid verdict checked against the oracle, plus a sampling
// floor asserting the corpus actually exercises the Valid path, and the
// whole verdict vector checked against the golden record.
func TestDifferentialProveGround(t *testing.T) {
	corpus := groundCorpus(groundCorpusSize())
	prover := diffProver()
	vec := make([]byte, len(corpus))
	valid := 0
	for i, f := range corpus {
		vec[i] = 'U'
		if checkAgainstOracle(t, prover, f) {
			vec[i] = 'V'
			valid++
		}
	}
	// The generator is biased toward tautological shapes; if the prover
	// stopped proving them, the differential check would be vacuous.
	n := len(corpus)
	floor := n / 10
	if valid < floor {
		t.Fatalf("only %d/%d corpus formulas proved Valid (floor %d); the differential check lost its teeth", valid, n, floor)
	}
	checkGroundGolden(t, vec)
	t.Logf("differential corpus: %d/%d Valid, zero discrepancies", valid, n)
}

// litFormula converts one ground literal back to a formula for the oracle.
func litFormula(l logic.Literal) logic.Formula {
	var f logic.Formula
	if l.IsCmp {
		f = l.Cmp
	} else {
		f = l.Pred
	}
	if l.Neg {
		f = logic.Not{F: f}
	}
	return f
}

// clauseFormula converts a ground clause to the disjunction of its literals.
func clauseFormula(c logic.Clause) logic.Formula {
	fs := make([]logic.Formula, len(c.Lits))
	for i, l := range c.Lits {
		fs[i] = litFormula(l)
	}
	return logic.Or{Fs: fs}
}

// TestCDCLDeterministicTrace: two runs of the CDCL engine over the same
// corpus — fresh provers, fresh caches, lemma sharing live — must produce
// identical verdicts, reasons, and trace hashes. The hash digests every
// decision, conflict, learned clause, backjump, and restart, so equality
// pins the entire search event stream, not just the outcome.
func TestCDCLDeterministicTrace(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 400
	}
	run := func() []string {
		r := &diffRNG{s: 0xdecaf1e57}
		p := New(nil, DefaultOptions()).WithCache(NewCache(0))
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			f := genGroundFormula(r, 2+r.intn(2))
			o := p.Prove(f)
			out = append(out, o.Result.String()+"|"+o.Reason+"|"+o.TraceHash)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CDCL run diverged at corpus formula %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
	if len(a) > 0 && a[0] == "" {
		t.Fatal("empty trace records")
	}
}

// FuzzLearnedClauseImplied asserts the lemma-sharing soundness invariant
// directly: every clause that lands in the shared pool (only untainted
// lemmas do) must be implied by the axiom base. With no axioms that means
// each pooled clause is valid outright — no bounded interpretation may
// falsify its disjunction, and re-proving its negation must fail.
func FuzzLearnedClauseImplied(f *testing.F) {
	f.Add(uint64(1), uint8(2))
	f.Add(uint64(0x5eed5eed5eed5eed), uint8(3))
	f.Add(uint64(0xfeedface), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, depth uint8) {
		r := &diffRNG{s: seed}
		d := int(depth%4) + 1
		p := New(nil, DefaultOptions()).WithCache(NewCache(0))
		for i := 0; i < 8; i++ {
			p.Prove(genGroundFormula(r, d))
		}
		p.cache.lemmaMu.Lock()
		var pooled []logic.Clause
		for _, pool := range p.cache.lemmas {
			pooled = append(pooled, pool.snapshot()...)
		}
		p.cache.lemmaMu.Unlock()
		checker := diffProver()
		for _, c := range pooled {
			disj := clauseFormula(c)
			if cm := findCounterModel(disj); cm != nil {
				t.Fatalf("pooled lemma not implied: %s falsified by consts=%v f=%v P=%v",
					disj, cm.consts, cm.fTable, cm.pTable)
			}
			if out := checker.Prove(logic.Not{F: disj}); out.Result == Valid {
				t.Fatalf("negation of pooled lemma proved Valid: %s", disj)
			}
		}
	})
}

// FuzzProveGround is the native fuzz target behind the same oracle: the
// fuzzer mutates the generator seed and shape, and every Valid verdict is
// checked for a bounded counter-model.
func FuzzProveGround(f *testing.F) {
	f.Add(uint64(1), uint8(2))
	f.Add(uint64(0x5eed5eed5eed5eed), uint8(3))
	f.Add(uint64(0xdeadbeef), uint8(1))
	f.Add(uint64(42), uint8(4))
	prover := diffProver()
	f.Fuzz(func(t *testing.T, seed uint64, depth uint8) {
		r := &diffRNG{s: seed}
		d := int(depth%4) + 1
		formula := genGroundFormula(r, d)
		checkAgainstOracle(t, prover, formula)
	})
}
