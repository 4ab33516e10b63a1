package simplify

import (
	"sort"

	"repro/internal/logic"
)

// This file holds the trigger machinery shared by clausification and
// e-matching: the predicate-as-term encoding and trigger inference. The
// matcher itself is match2.go.

// predTermFn is the function-symbol prefix used to encode predicate atoms
// as terms, so that predicate applications can serve as triggers and match
// against the term bank (the e-graph uses the same encoding).
const predTermFn = "@pred$"

// predAsTerm encodes a predicate atom as a term.
func predAsTerm(p logic.Pred) logic.Term {
	return logic.App{Fn: predTermFn + p.Name, Args: p.Args}
}

// inferTriggers selects trigger patterns for a quantified clause that has no
// explicit ones: the smallest non-arithmetic application subterms of the
// clause's literals that cover all clause variables, preferring a single
// covering term, falling back to a greedy multi-pattern.
func inferTriggers(c logic.Clause) [][]logic.Term {
	vars := map[string]bool{}
	for _, v := range c.Vars() {
		vars[v] = true
	}
	if len(vars) == 0 {
		return nil
	}
	var candidates []logic.Term
	var collect func(t logic.Term)
	collect = func(t logic.Term) {
		app, ok := t.(logic.App)
		if !ok {
			return
		}
		if !isArithFn(app.Fn) && len(app.Args) > 0 && !logic.TermIsGround(t) {
			candidates = append(candidates, t)
		}
		for _, a := range app.Args {
			collect(a)
		}
	}
	for _, l := range c.Lits {
		if l.IsCmp {
			collect(l.Cmp.L)
			collect(l.Cmp.R)
		} else {
			collect(predAsTerm(l.Pred))
		}
	}
	// Dedup, smallest first.
	seen := map[string]bool{}
	uniq := candidates[:0]
	for _, t := range candidates {
		k := t.String()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, t)
		}
	}
	sort.SliceStable(uniq, func(i, j int) bool {
		return logic.TermSize(uniq[i]) < logic.TermSize(uniq[j])
	})
	covered := func(t logic.Term) map[string]bool {
		out := map[string]bool{}
		for _, v := range logic.TermVars(t) {
			if vars[v] {
				out[v] = true
			}
		}
		return out
	}
	// Single covering term?
	for _, t := range uniq {
		if len(covered(t)) == len(vars) {
			return [][]logic.Term{{t}}
		}
	}
	// Greedy multi-pattern.
	var multi []logic.Term
	remaining := map[string]bool{}
	for v := range vars {
		remaining[v] = true
	}
	for len(remaining) > 0 {
		best := -1
		bestGain := 0
		for i, t := range uniq {
			gain := 0
			for v := range covered(t) {
				if remaining[v] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain = gain
				best = i
			}
		}
		if best < 0 {
			// Some variable occurs in no candidate subterm; cannot build a
			// trigger, so the clause will never instantiate.
			return nil
		}
		multi = append(multi, uniq[best])
		for v := range covered(uniq[best]) {
			delete(remaining, v)
		}
	}
	return [][]logic.Term{multi}
}

func isArithFn(fn string) bool {
	switch fn {
	case "+", "-", "*", "~":
		return true
	}
	return false
}
