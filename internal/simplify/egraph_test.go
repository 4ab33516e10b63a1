package simplify

import (
	"testing"

	"repro/internal/logic"
)

// These tests drive the congruence-closure engine the search uses (egraph2)
// through logic.Term-level helpers; egraph2_test.go covers its undo trail.

// egTest wraps a fresh egraph2 with Term-level assertions.
type egTest struct {
	tt *logic.TermTable
	e  *egraph2
}

func newEgTest() egTest {
	tt := logic.NewTermTable()
	return egTest{tt: tt, e: newEgraph2(tt)}
}

func (g egTest) node(t logic.Term) enodeID { return g.e.internNode(g.tt.Intern(t)) }

func (g egTest) assertEq(a, b logic.Term) { g.e.mergeTerms(g.tt.Intern(a), g.tt.Intern(b)) }

func (g egTest) assertNe(a, b logic.Term) { g.e.assertDiseq(g.tt.Intern(a), g.tt.Intern(b), "") }

func (g egTest) assertPred(p logic.Pred, val bool) {
	g.e.assertPredID(g.tt.Intern(predAsTerm(p)), val)
}

func (g egTest) sameClass(a, b logic.Term) bool {
	return g.e.find(g.node(a)) == g.e.find(g.node(b))
}

func TestEgraphBasicMerge(t *testing.T) {
	g := newEgTest()
	a, b := logic.Const("a"), logic.Const("b")
	g.assertEq(a, b)
	if !g.sameClass(a, b) {
		t.Error("a and b not merged")
	}
	if g.e.check() {
		t.Error("spurious inconsistency")
	}
}

func TestEgraphCongruence(t *testing.T) {
	g := newEgTest()
	a, b := logic.Const("a"), logic.Const("b")
	fa, fb := logic.Fn("f", a), logic.Fn("f", b)
	g.node(fa)
	g.node(fb)
	g.assertEq(a, b)
	if !g.sameClass(fa, fb) {
		t.Error("congruence f(a)=f(b) not derived from a=b")
	}
}

func TestEgraphCongruenceAfterTheFact(t *testing.T) {
	// Terms interned after the merge must still land in the right class.
	g := newEgTest()
	a, b := logic.Const("a"), logic.Const("b")
	g.assertEq(a, b)
	ia := g.node(logic.Fn("f", a))
	ib := g.node(logic.Fn("f", b))
	if g.e.find(ia) != g.e.find(ib) {
		t.Error("congruence not applied to newly interned terms")
	}
}

func TestEgraphTransitivity(t *testing.T) {
	g := newEgTest()
	a, b, c := logic.Const("a"), logic.Const("b"), logic.Const("c")
	g.assertEq(a, b)
	g.assertEq(b, c)
	if !g.sameClass(a, c) {
		t.Error("transitivity failed")
	}
}

func TestEgraphDisequalityConflict(t *testing.T) {
	g := newEgTest()
	a, b := logic.Const("a"), logic.Const("b")
	g.assertNe(a, b)
	g.assertEq(a, b)
	if !g.e.check() {
		t.Error("a=b with a!=b not detected")
	}
}

func TestEgraphDeepCongruenceConflict(t *testing.T) {
	// a=b, g(f(a)) != g(f(b)) is inconsistent.
	g := newEgTest()
	a, b := logic.Const("a"), logic.Const("b")
	gfa := logic.Fn("g", logic.Fn("f", a))
	gfb := logic.Fn("g", logic.Fn("f", b))
	g.assertNe(gfa, gfb)
	g.assertEq(a, b)
	if !g.e.check() {
		t.Error("nested congruence conflict not detected")
	}
}

func TestEgraphIntLiterals(t *testing.T) {
	g := newEgTest()
	g.assertEq(logic.Const("x"), logic.Num(3))
	g.assertEq(logic.Const("x"), logic.Num(4))
	if !g.e.check() {
		t.Error("3 = 4 via x not detected")
	}
}

func TestEgraphPredicates(t *testing.T) {
	g := newEgTest()
	a, b := logic.Const("a"), logic.Const("b")
	g.assertPred(logic.Pred{Name: "p", Args: []logic.Term{a}}, true)
	g.assertPred(logic.Pred{Name: "p", Args: []logic.Term{b}}, false)
	if g.e.check() {
		t.Fatal("p(a) and !p(b) should be consistent")
	}
	g.assertEq(a, b)
	if !g.e.check() {
		t.Error("p(a), !p(b), a=b not detected as inconsistent")
	}
}

func TestEgraphDistinctFunctionSymbols(t *testing.T) {
	g := newEgTest()
	a := logic.Const("a")
	g.assertEq(logic.Fn("f", a), logic.Fn("g", a))
	if g.e.check() {
		t.Error("f(a)=g(a) must be consistent (uninterpreted symbols)")
	}
	if g.sameClass(a, logic.Const("b")) {
		t.Error("unrelated constants merged")
	}
}
