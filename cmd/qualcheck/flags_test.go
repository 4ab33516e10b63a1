package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/cachedisk"
	"repro/internal/corpus"
	"repro/internal/testutil/flagdoc"
	"repro/internal/watch"
)

// qualcheckChild returns a command that re-executes the test binary as
// qualcheck (see TestMain) with the given arguments.
func qualcheckChild(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QUALCHECK_SMOKE_CHILD=1")
	return cmd
}

// schedulerWorkersRe reads the worker count from `qualcheck -r -stats`.
var schedulerWorkersRe = regexp.MustCompile(`(?m)^scheduler: (\d+) workers`)

// TestFlagDefaultsMatchHelp checks every flag default qualcheck documents:
// the help text states it, and where the default can be observed from
// outside, the program honours it. Without -j, `qualcheck -r` must run one
// scheduler worker per core (GOMAXPROCS, here pinned to 3 in the child).
func TestFlagDefaultsMatchHelp(t *testing.T) {
	flagdoc.Check(t, flagdoc.Help(t, qualcheckChild()), []flagdoc.Row{
		{Flag: "j", Doc: "(default: all cores)"},
		{Flag: "debounce", Doc: "(default " + watch.DefaultDebounce.String() + ")"},
		{Flag: "poll", Doc: "(0 = use notifications)"},
		{Flag: "max-files", Doc: "(0 = unlimited)"},
		{Flag: "cache-budget", Doc: "(0 = default 256 MiB)"},
		{Flag: "timeout", Doc: "0 means unlimited"},
	})
	if cachedisk.DefaultBudget != 256<<20 {
		t.Errorf("-cache-budget documents 256 MiB, cachedisk.DefaultBudget is %d bytes", cachedisk.DefaultBudget)
	}

	tree := filepath.Join(t.TempDir(), "tree")
	if _, err := corpus.WriteTree(tree, 10, 42); err != nil {
		t.Fatal(err)
	}
	workers := func(args ...string) string {
		t.Helper()
		cmd := qualcheckChild(append([]string{"-r", tree, "-stats"}, args...)...)
		cmd.Env = append(cmd.Env, "GOMAXPROCS=3")
		out, err := cmd.Output()
		if ee, ok := err.(*exec.ExitError); err != nil && (!ok || ee.ExitCode() != 1) {
			t.Fatalf("qualcheck -r %v: %v\n%s", args, err, out)
		}
		m := schedulerWorkersRe.FindSubmatch(out)
		if m == nil {
			t.Fatalf("no scheduler line in:\n%s", out)
		}
		return string(m[1])
	}
	if got := workers(); got != "3" {
		t.Errorf("-j omitted with GOMAXPROCS=3: %s scheduler workers, want 3 (all cores)", got)
	}
	if got := workers("-j", "2"); got != "2" {
		t.Errorf("-j 2: %s scheduler workers, want 2", got)
	}
}
