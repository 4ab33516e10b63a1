package simplify

import (
	"testing"

	"repro/internal/logic"
)

// These tests drive the arithmetic theory the search uses: arithSolver2
// (Fourier-Motzkin with integer tightening over TermID-keyed linear forms)
// and its memoised linearisation.

// linOf linearises t through s's memo twice, failing if the second (cached)
// answer differs from the first: callers clone before mutating, so the
// cached form must never change.
func linOf(t *testing.T, s *arithSolver2, term logic.Term) linExprI {
	t.Helper()
	id := s.tt.Intern(term)
	first := s.lin(id).clone()
	again := s.lin(id)
	if first.consts != again.consts || len(first.coeffs) != len(again.coeffs) {
		t.Fatalf("memoised linearisation of %s changed: %v then %v", term, first, again)
	}
	for k, c := range first.coeffs {
		if again.coeffs[k] != c {
			t.Fatalf("memoised linearisation of %s changed: %v then %v", term, first, again)
		}
	}
	return again
}

// coeff returns the coefficient of the atom term in l.
func coeff(s *arithSolver2, l linExprI, atom logic.Term) int64 {
	return l.coeffs[s.tt.Intern(atom)]
}

// assertTerms asserts l op r into s.
func assertTerms(s *arithSolver2, op logic.CmpOp, l, r logic.Term) {
	s.assertCmp(op, s.tt.Intern(l), s.tt.Intern(r))
}

func TestLinearizeConstant(t *testing.T) {
	s := newArithSolver2(logic.NewTermTable())
	l := linOf(t, s, logic.Num(5))
	if l.consts != 5 || len(l.coeffs) != 0 {
		t.Errorf("linearize(5) = %v", l)
	}
}

func TestLinearizeSum(t *testing.T) {
	// x + (y - 3)
	s := newArithSolver2(logic.NewTermTable())
	x, y := logic.Const("x"), logic.Const("y")
	l := linOf(t, s, logic.Add(x, logic.Sub(y, logic.Num(3))))
	if l.consts != -3 || coeff(s, l, x) != 1 || coeff(s, l, y) != 1 || len(l.coeffs) != 2 {
		t.Errorf("linearize = %v", l)
	}
}

func TestLinearizeScaledProduct(t *testing.T) {
	// 2 * x is linear; x * y is opaque.
	s := newArithSolver2(logic.NewTermTable())
	x, y := logic.Const("x"), logic.Const("y")
	l := linOf(t, s, logic.Mul(logic.Num(2), x))
	if coeff(s, l, x) != 2 || len(l.coeffs) != 1 {
		t.Errorf("2*x = %v", l)
	}
	xy := logic.Mul(x, y)
	l2 := linOf(t, s, xy)
	if len(l2.coeffs) != 1 || coeff(s, l2, xy) != 1 {
		t.Errorf("x*y should be one opaque atom: %v", l2)
	}
}

func TestLinearizeNegation(t *testing.T) {
	s := newArithSolver2(logic.NewTermTable())
	x := logic.Const("x")
	l := linOf(t, s, logic.Neg(x))
	if coeff(s, l, x) != -1 {
		t.Errorf("~x = %v", l)
	}
}

func TestLinearizeCancellation(t *testing.T) {
	s := newArithSolver2(logic.NewTermTable())
	x := logic.Const("x")
	l := linOf(t, s, logic.Sub(x, x))
	if len(l.coeffs) != 0 || l.consts != 0 {
		t.Errorf("x - x = %v, want 0", l)
	}
}

func TestArithConsistent(t *testing.T) {
	s := newArithSolver2(logic.NewTermTable())
	x := logic.Const("x")
	assertTerms(s, logic.GtOp, x, logic.Num(0))
	assertTerms(s, logic.LtOp, x, logic.Num(10))
	if s.infeasible(nil) {
		t.Error("0 < x < 10 reported inconsistent")
	}
}

func TestArithDirectConflict(t *testing.T) {
	s := newArithSolver2(logic.NewTermTable())
	x := logic.Const("x")
	assertTerms(s, logic.GtOp, x, logic.Num(5))
	assertTerms(s, logic.LtOp, x, logic.Num(3))
	if !s.infeasible(nil) {
		t.Error("x > 5 and x < 3 not detected")
	}
}

func TestArithStrictIntegerTightening(t *testing.T) {
	// Over the integers, x > 0 and x < 1 is inconsistent (no integer in
	// (0,1)), though it is rationally satisfiable.
	s := newArithSolver2(logic.NewTermTable())
	x := logic.Const("x")
	assertTerms(s, logic.GtOp, x, logic.Num(0))
	assertTerms(s, logic.LtOp, x, logic.Num(1))
	if !s.infeasible(nil) {
		t.Error("integer tightening failed: 0 < x < 1 over ints")
	}
}

func TestArithChain(t *testing.T) {
	s := newArithSolver2(logic.NewTermTable())
	x, y, z := logic.Const("x"), logic.Const("y"), logic.Const("z")
	assertTerms(s, logic.LtOp, x, y)
	assertTerms(s, logic.LtOp, y, z)
	assertTerms(s, logic.LtOp, z, x)
	if !s.infeasible(nil) {
		t.Error("x<y<z<x not detected")
	}
}

func TestArithEquality(t *testing.T) {
	s := newArithSolver2(logic.NewTermTable())
	x, y := logic.Const("x"), logic.Const("y")
	assertTerms(s, logic.EqOp, x, y)
	assertTerms(s, logic.GtOp, x, y)
	if !s.infeasible(nil) {
		t.Error("x = y and x > y not detected")
	}
}

func TestArithCoefficients(t *testing.T) {
	// 2x + 3y <= 6, x >= 2, y >= 1 -> 2*2+3*1 = 7 > 6: inconsistent.
	s := newArithSolver2(logic.NewTermTable())
	x, y := logic.Const("x"), logic.Const("y")
	lhs := logic.Add(logic.Mul(logic.Num(2), x), logic.Mul(logic.Num(3), y))
	assertTerms(s, logic.LeOp, lhs, logic.Num(6))
	assertTerms(s, logic.GeOp, x, logic.Num(2))
	assertTerms(s, logic.GeOp, y, logic.Num(1))
	if !s.infeasible(nil) {
		t.Error("coefficient conflict not detected")
	}
}

// TestArithEqAtomsPropagation: an equality the e-graph knows between two
// arithmetic atoms reaches the solver through the per-check EUF->LA facts.
func TestArithEqAtomsPropagation(t *testing.T) {
	tt := logic.NewTermTable()
	s := newArithSolver2(tt)
	eg := newEgraph2(tt)
	a, b := tt.Intern(logic.Const("a")), tt.Intern(logic.Const("b"))
	zero := tt.Intern(logic.Num(0))
	s.assertCmp(logic.GtOp, a, zero)
	s.assertCmp(logic.LtOp, b, zero)
	for _, atom := range []logic.TermID{a, b} {
		s.registerAtom(atom)
		eg.internNode(atom)
	}
	if s.infeasible(eufLA(eg, s)) {
		t.Fatal("a > 0, b < 0 with a, b unrelated should be consistent")
	}
	eg.mergeTerms(a, b)
	if !s.infeasible(eufLA(eg, s)) {
		t.Error("a = b with a > 0, b < 0 not detected")
	}
}

func TestArithUninterpretedAtoms(t *testing.T) {
	// f(x) > 0 and f(x) < 0 conflict; f(x) and f(y) are independent.
	s := newArithSolver2(logic.NewTermTable())
	fx := logic.Fn("f", logic.Const("x"))
	fy := logic.Fn("f", logic.Const("y"))
	assertTerms(s, logic.GtOp, fx, logic.Num(0))
	assertTerms(s, logic.LtOp, fy, logic.Num(0))
	if s.infeasible(nil) {
		t.Fatal("f(x) > 0, f(y) < 0 should be consistent")
	}
	assertTerms(s, logic.LtOp, fx, logic.Num(0))
	if !s.infeasible(nil) {
		t.Error("f(x) > 0 and f(x) < 0 not detected")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 4}, {6, 2, 3}, {-7, 2, -3}, {0, 5, 0}, {1, 3, 1}, {-1, 3, 0},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDNormalization(t *testing.T) {
	// 2x <= -1 over ints means x <= -1 (ceil(1/2) = 1).
	tt := logic.NewTermTable()
	x := tt.Intern(logic.Const("x"))
	e := newLinExprI().addAtom(x, 2)
	e.consts = 1
	n := normalizeGCDI(e)
	if n.coeffs[x] != 1 || len(n.coeffs) != 1 || n.consts != 1 {
		t.Errorf("normalizeGCD(2x+1<=0) = %v, want x+1<=0", n)
	}
}
