package soundness

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/qdl"
	"repro/internal/quals"
)

// goldenMutations are the paper's six unsound mutations (sections 2.1.3 and
// 2.2.3): each breaks one rule of a shipped qualifier, and each must leave
// at least one obligation unproved.
var goldenMutations = []struct{ name, qual, file, src, from, to, other string }{
	{"pos with E1 - E2", "pos", "pos.qdl", quals.Pos, "E1 * E2", "E1 - E2", "neg.qdl"},
	{"pos with C >= 0", "pos", "pos.qdl", quals.Pos, "C > 0", "C >= 0", "neg.qdl"},
	{"neg with E1 * E2", "neg", "neg.qdl", quals.Neg, "E1 + E2", "E1 * E2", "pos.qdl"},
	{"unique without disallow L", "unique", "unique.qdl", quals.Unique, "disallow L\n", "", ""},
	{"unaliased without disallow &X", "unaliased", "unaliased.qdl", quals.Unaliased, "disallow &X\n", "", ""},
	{"constq without noassign", "constq", "constq.qdl", quals.Constq, "  noassign\n", "", ""},
}

// verdictRows renders every obligation verdict of the suite plus the
// mutations in the golden table's format.
func verdictRows(t *testing.T, opts Options) []string {
	t.Helper()
	reg, err := quals.WithExtras()
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	emit := func(label string, r *Report) {
		if r.Err != nil {
			rows = append(rows, fmt.Sprintf("%s\t%s\t-\tERROR\t%v", label, r.Qualifier, r.Err))
			return
		}
		for i, res := range r.Results {
			rows = append(rows, fmt.Sprintf("%s\t%s\t%d\t%s\t%s\t%s", label, r.Qualifier, i,
				res.Obligation.Description, res.Outcome.Result, res.Outcome.Reason))
		}
	}
	reps, _ := ProveAll(reg, opts)
	for _, r := range reps {
		emit("suite", r)
	}
	for _, m := range goldenMutations {
		srcs := map[string]string{m.file: strings.Replace(m.src, m.from, m.to, 1)}
		if m.other != "" {
			srcs[m.other] = quals.Sources()[m.other]
		}
		mreg, err := qdl.Load(srcs)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		r, err := Prove(mreg.Lookup(m.qual), mreg, opts)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		emit(m.name, r)
	}
	return rows
}

// TestObligationVerdictsGolden: the prover reproduces, row for row, the
// obligation verdict table that three independent search engines agreed on
// before two of them were retired (testdata/obligation_verdicts.golden
// records how it was made). Any change to an obligation's Result or Reason
// — a lost proof, a new proof, a different prefilter tier — fails here.
func TestObligationVerdictsGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/obligation_verdicts.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	opts := DefaultOptions()
	opts.Concurrency = 1
	got := verdictRows(t, opts)
	if len(got) != len(want) {
		t.Errorf("%d verdict rows, golden table has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("row %d:\n  got:    %q\n  golden: %q", i, got[i], want[i])
		}
	}
}
