package simplify

import (
	"repro/internal/logic"
)

// This file implements trigger-based instantiation (e-matching) of
// quantified clauses against the ground term bank. The bank is deduplicated
// by TermID (an O(1) slice probe) and indexed by head symbol, so matching a
// pattern headed by f scans only the f-terms instead of the whole bank. The bank persists
// across instantiation rounds; addClause catches it up on newly added
// clauses only.

type bank2 struct {
	tt *logic.TermTable
	// byHead indexes application terms by function symbol, in insertion
	// order, which keeps the produced substitution order deterministic
	// (only same-head terms can match an application pattern).
	byHead map[string][]logic.TermID
	// seen is indexed by TermID (grown on demand).
	seen []bool
}

func newBank2(tt *logic.TermTable) *bank2 {
	return &bank2{tt: tt, byHead: make(map[string][]logic.TermID, 64)}
}

func (b *bank2) has(t logic.TermID) bool {
	return int(t) < len(b.seen) && b.seen[t]
}

// add inserts t and all its subterms.
func (b *bank2) add(t logic.TermID) {
	if b.has(t) {
		return
	}
	for int(t) >= len(b.seen) {
		b.seen = append(b.seen, false)
	}
	b.seen[t] = true
	if b.tt.Kind(t) == logic.KindApp {
		fn := b.tt.Fn(t)
		b.byHead[fn] = append(b.byHead[fn], t)
		for _, a := range b.tt.Args(t) {
			b.add(a)
		}
	}
}

// addLit inserts the terms of one interned clause literal.
func (b *bank2) addLit(l ilit, at *atomTable) {
	k := at.keys[l.atom()]
	b.add(k.l)
	if k.op != predOp {
		b.add(k.r)
	}
}

// matchTermID matches pattern against interned ground term t, extending sub.
// Bound-variable consistency is an integer compare.
func matchTermID(pattern logic.Term, t logic.TermID, sub map[string]logic.TermID, tt *logic.TermTable) (map[string]logic.TermID, bool) {
	switch p := pattern.(type) {
	case logic.Var:
		if bound, ok := sub[p.Name]; ok {
			if bound == t {
				return sub, true
			}
			return nil, false
		}
		ext := make(map[string]logic.TermID, len(sub)+1)
		for k, v := range sub {
			ext[k] = v
		}
		ext[p.Name] = t
		return ext, true
	case logic.IntLit:
		if v, ok := tt.IsInt(t); ok && v == p.Value {
			return sub, true
		}
		return nil, false
	case logic.App:
		if tt.Kind(t) != logic.KindApp || tt.Fn(t) != p.Fn {
			return nil, false
		}
		args := tt.Args(t)
		if len(args) != len(p.Args) {
			return nil, false
		}
		cur := sub
		for i := range p.Args {
			next, ok := matchTermID(p.Args[i], args[i], cur, tt)
			if !ok {
				return nil, false
			}
			cur = next
		}
		return cur, true
	}
	return nil, false
}

// matchPattern2 returns all substitutions matching one pattern against the
// bank. Application patterns probe only the pattern head's index bucket.
func matchPattern2(pattern logic.Term, bank *bank2, base map[string]logic.TermID, tk *ticker) []map[string]logic.TermID {
	var out []map[string]logic.TermID
	if app, ok := pattern.(logic.App); ok {
		for _, t := range bank.byHead[app.Fn] {
			if tk.stop() {
				return out
			}
			if sub, ok := matchTermID(pattern, t, base, bank.tt); ok {
				out = append(out, sub)
			}
		}
		return out
	}
	// Non-application patterns (bare variables, integer literals) never
	// occur in inferred triggers; scan the whole bank for completeness.
	for t := logic.TermID(0); int(t) < len(bank.seen); t++ {
		if !bank.seen[t] {
			continue
		}
		if tk.stop() {
			return out
		}
		if sub, ok := matchTermID(pattern, t, base, bank.tt); ok {
			out = append(out, sub)
		}
	}
	return out
}

// matchTrigger2 matches a multi-pattern trigger against the bank, all
// patterns sharing variable bindings.
func matchTrigger2(trigger []logic.Term, bank *bank2, tk *ticker) []map[string]logic.TermID {
	subs := []map[string]logic.TermID{{}}
	for _, pat := range trigger {
		var next []map[string]logic.TermID
		for _, base := range subs {
			if tk.stop() {
				return next
			}
			next = append(next, matchPattern2(pat, bank, base, tk)...)
		}
		subs = next
		if len(subs) == 0 {
			return nil
		}
	}
	return subs
}
