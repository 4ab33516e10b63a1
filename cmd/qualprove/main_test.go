package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/simplify"
	"repro/internal/testutil/flagdoc"
)

// TestMain doubles as the qualprove child: when re-executed with
// QUALPROVE_CHILD=1 the test binary runs the real main, so the tests below
// exercise the shipped flag set.
func TestMain(m *testing.M) {
	if os.Getenv("QUALPROVE_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func qualproveChild(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QUALPROVE_CHILD=1")
	return cmd
}

// TestFlagDefaultsMatchHelp checks that the help text states every flag
// default qualprove documents, with the duration default taken from the
// prover itself.
func TestFlagDefaultsMatchHelp(t *testing.T) {
	flagdoc.Check(t, flagdoc.Help(t, qualproveChild()), []flagdoc.Row{
		{Flag: "j", Doc: "(default: all cores)"},
		{Flag: "max-terms", Doc: "(0 = unlimited)"},
		{Flag: "max-clauses", Doc: "(0 = unlimited)"},
		{Flag: "max-insts", Doc: "(0 = default)"},
		{Flag: "mem-budget", Doc: "(0 = unlimited)"},
		{Flag: "timeout", Doc: "(default " + simplify.DefaultGoalTimeout.String() + ")"},
		{Flag: "prefilter", Doc: `(default "on")`},
	})
}

// TestLearnFlagRejected: the prover has a single search engine, so the
// flag that once switched clause learning off no longer exists.
func TestLearnFlagRejected(t *testing.T) {
	out, err := qualproveChild("-learn", "off", "-goal", "(EQ 1 1)").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -learn") {
		t.Fatalf("qualprove -learn off: %v\n%s", err, out)
	}
}
