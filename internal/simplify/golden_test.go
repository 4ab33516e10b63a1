package simplify

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/logic"
)

// This file checks the engine's verdicts on the fixed-seed ground corpus
// from outside the search, in both directions: the verdict vector must match
// the record that three independent engines agreed on before two of them
// were retired (testdata/ground_verdicts.golden), and every "saturated"
// Unknown must come with a countermodel that survives an independent check.
// Valid verdicts are checked against the bounded-model oracle in
// differential_test.go and by certificate replay in cert_test.go.

// groundCorpusSeed is the seed of the golden ground corpus.
const groundCorpusSeed = 0x5eed5eed5eed5eed

// groundCorpusSize is the corpus size a test runs: 10k, or the 2000-formula
// prefix under -short.
func groundCorpusSize() int {
	if testing.Short() {
		return 2000
	}
	return 10000
}

// groundCorpus returns the first n formulas of the golden corpus.
func groundCorpus(n int) []logic.Formula {
	r := &diffRNG{s: groundCorpusSeed}
	fs := make([]logic.Formula, n)
	for i := range fs {
		fs[i] = genGroundFormula(r, 2+r.intn(2))
	}
	return fs
}

// checkGroundGolden compares a verdict vector (one 'V' or 'U' per corpus
// formula) with the committed record for its length.
func checkGroundGolden(t *testing.T, vec []byte) {
	t.Helper()
	f, err := os.Open("testdata/ground_verdicts.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum := sha256.Sum256(vec)
	valid := strings.Count(string(vec), "V")
	got := fmt.Sprintf("n %d valid %d sha256 %s", len(vec), valid, hex.EncodeToString(sum[:]))
	prefix := fmt.Sprintf("n %d ", len(vec))
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == fmt.Sprintf("seed %#x", uint64(groundCorpusSeed)) || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "seed "):
			t.Fatalf("golden record is for %s, corpus uses %#x", line, uint64(groundCorpusSeed))
		case strings.HasPrefix(line, prefix):
			if line != got {
				t.Fatalf("ground verdict vector diverged from the golden record:\n  got:    %s\n  golden: %s", got, line)
			}
			return
		}
	}
	t.Fatalf("golden record has no line for n=%d (got %s)", len(vec), got)
}

// groundVerdicts proves the corpus with p and returns the verdict vector,
// calling visit (when non-nil) on every outcome.
func groundVerdicts(t *testing.T, p *Prover, corpus []logic.Formula, visit func(i int, f logic.Formula, out Outcome)) []byte {
	t.Helper()
	vec := make([]byte, len(corpus))
	for i, f := range corpus {
		out := p.Prove(f)
		if TransientReason(out.Reason) {
			t.Fatalf("corpus formula %d: transient outcome %q", i, out.Reason)
		}
		vec[i] = 'U'
		if out.Result == Valid {
			vec[i] = 'V'
		}
		if visit != nil {
			visit(i, f, out)
		}
	}
	return vec
}

// TestGroundVerdictGoldenWithLemmas: with a shared cache attached, later
// corpus goals import lemmas learned on earlier ones. Imported lemmas are
// implied by the (empty) axiom base, so they may prune search but never
// flip a verdict: the vector must still match the golden record.
func TestGroundVerdictGoldenWithLemmas(t *testing.T) {
	p := New(nil, DefaultOptions()).WithCache(NewCache(0))
	imported := 0
	vec := groundVerdicts(t, p, groundCorpus(groundCorpusSize()), func(_ int, _ logic.Formula, out Outcome) {
		imported += out.Stats.LemmasImported
	})
	if imported == 0 {
		t.Fatal("no corpus goal imported a shared lemma; the lemma path went untested")
	}
	checkGroundGolden(t, vec)
}

// TestGroundCounterModels checks every "saturated without contradiction"
// outcome of the corpus from outside the search: its countermodel must be
// propositionally consistent, satisfy every clause of the clausified negated
// goal, and be accepted without conflict by fresh theory solvers. A
// saturated Unknown whose countermodel fails any of these would be a
// completeness bug (the search stopped on an assignment that is not a
// model).
func TestGroundCounterModels(t *testing.T) {
	p := New(nil, DefaultOptions())
	saturated := 0
	groundVerdicts(t, p, groundCorpus(groundCorpusSize()), func(i int, f logic.Formula, out Outcome) {
		if out.Result != Unknown || out.Reason != "saturated without contradiction" {
			return
		}
		saturated++
		if err := checkCounterModel(f, out.CounterExample); err != nil {
			t.Fatalf("corpus formula %d: %v\n  formula: %s\n  model:   %v", i, err, f, out.CounterExample)
		}
	})
	if saturated < groundCorpusSize()/10 {
		t.Fatalf("only %d saturated goals; the countermodel check lost its teeth", saturated)
	}
	t.Logf("%d saturated goals, every countermodel checked", saturated)
}

// checkCounterModel is the independent model check behind
// TestGroundCounterModels. The model lists literals in the search's
// canonical atom form: an equality or predicate atom, possibly negated, or
// an order atom l < r / l <= r (whose negations print as >= and >).
func checkCounterModel(goal logic.Formula, model []string) error {
	lits := make([]logic.Literal, len(model))
	holds := map[string]bool{}
	for i, s := range model {
		f, err := logic.ParseFormula(s)
		if err != nil {
			return fmt.Errorf("unparsable model literal %q: %v", s, err)
		}
		switch g := f.(type) {
		case logic.Cmp:
			lits[i] = logic.Literal{IsCmp: true, Cmp: g}
		case logic.Pred:
			lits[i] = logic.Literal{Pred: g}
		case logic.Not:
			p, ok := g.F.(logic.Pred)
			if !ok {
				return fmt.Errorf("model literal %q is not a literal", s)
			}
			lits[i] = logic.Literal{Neg: true, Pred: p}
		default:
			return fmt.Errorf("model literal %q is not a literal", s)
		}
		if lits[i].String() != s {
			return fmt.Errorf("model literal %q reparses as %q", s, lits[i])
		}
		holds[s] = true
	}

	// Propositional consistency: no literal together with its negation.
	for _, l := range lits {
		if holds[l.Negated().String()] {
			return fmt.Errorf("model holds both %s and %s", l, l.Negated())
		}
	}

	// Every clause of the negated goal has a literal the model makes true.
	clauses, err := logic.Clausify(logic.Not{F: goal}, logic.NewSkolemizer("sk"))
	if err != nil {
		return err
	}
	for _, c := range clauses {
		sat := false
		for _, l := range c.Lits {
			if holds[canonicalModelForm(l)] {
				sat = true
				break
			}
		}
		if !sat {
			return fmt.Errorf("model falsifies clause %s", c)
		}
	}

	// Fresh theory solvers accept every literal at once.
	tt := logic.NewTermTable()
	eg := newEgraph2(tt)
	ar := newArithSolver2(tt)
	for _, l := range lits {
		if !l.IsCmp {
			eg.assertPredID(tt.Intern(predAsTerm(l.Pred)), !l.Neg)
			continue
		}
		lhs, rhs := tt.Intern(l.Cmp.L), tt.Intern(l.Cmp.R)
		switch l.Cmp.Op {
		case logic.EqOp:
			eg.mergeTerms(lhs, rhs)
			ar.assertCmp(logic.EqOp, lhs, rhs)
		case logic.NeOp:
			eg.assertDiseq(lhs, rhs, "")
		default:
			ar.assertCmp(l.Cmp.Op, lhs, rhs)
			for _, t := range []logic.TermID{lhs, rhs} {
				for _, a := range ar.atomsOf(t) {
					ar.registerAtom(a)
					eg.internNode(a)
				}
			}
		}
	}
	if eg.check() {
		return fmt.Errorf("fresh e-graph finds the model inconsistent")
	}
	if ar.infeasible(eufLA(eg, ar)) {
		return fmt.Errorf("fresh arithmetic solver finds the model infeasible")
	}
	return nil
}

// canonicalModelForm prints a clause literal the way a model lists it:
// a disequality is a negated equality, l > r is r < l and l >= r is r <= l,
// and a negated order atom prints as its complementary comparison.
func canonicalModelForm(l logic.Literal) string {
	if !l.IsCmp {
		return l.String()
	}
	op, lhs, rhs, neg := l.Cmp.Op, l.Cmp.L, l.Cmp.R, l.Neg
	switch op {
	case logic.NeOp:
		op, neg = logic.EqOp, !neg
	case logic.GtOp:
		op, lhs, rhs = logic.LtOp, rhs, lhs
	case logic.GeOp:
		op, lhs, rhs = logic.LeOp, rhs, lhs
	}
	atom := logic.Literal{IsCmp: true, Cmp: logic.Cmp{Op: op, L: lhs, R: rhs}}
	if neg {
		atom = atom.Negated()
	}
	return atom.String()
}

// TestCheckCounterModelRejects pins that the model check has teeth: for the
// goal a < b (negated: b <= a), the genuine model passes and each tampered
// one is rejected by the check it targets.
func TestCheckCounterModelRejects(t *testing.T) {
	goal := logic.Lt(logic.Const("a"), logic.Const("b"))
	if err := checkCounterModel(goal, []string{"(<= b a)"}); err != nil {
		t.Fatalf("genuine model rejected: %v", err)
	}
	for _, tc := range []struct {
		model []string
		want  string
	}{
		{nil, "falsifies clause"},
		{[]string{"(<= b a)", "(> b a)"}, "holds both"},
		{[]string{"(<= b a)", "(< a b)"}, "infeasible"},
		{[]string{"(<= b a)", "(EQ a 1)", "(EQ a 2)"}, "e-graph"},
		{[]string{"(<= b a)", "(P a)", "(NOT (P b))", "(EQ a b)"}, "e-graph"},
		{[]string{"(<= b a)", "(AND (P a) (P b))"}, "not a literal"},
	} {
		err := checkCounterModel(goal, tc.model)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("model %v: error %v, want one mentioning %q", tc.model, err, tc.want)
		}
	}
}
