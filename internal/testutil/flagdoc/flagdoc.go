// Package flagdoc checks a command's documented flag defaults against the
// help text it prints for -h. Each command's test keeps a table of the
// defaults its flags document; the help text must state each one, and the
// test then observes the program honouring it where that can be seen from
// outside.
package flagdoc

import (
	"os/exec"
	"strings"
	"testing"
)

// Row is one documented default: the flag name (without the dash) and a
// phrase its help text must contain, such as "(default: all cores)" or the
// "(default 5s)" the flag package appends for non-zero defaults.
type Row struct {
	Flag, Doc string
}

// Help runs cmd (a re-executed test binary acting as the command) with -h
// and returns what it printed. flag.Parse exits 0 on -h and prints to
// stderr.
func Help(t testing.TB, cmd *exec.Cmd) string {
	t.Helper()
	cmd.Args = append(cmd.Args, "-h")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", cmd.Path, err, out)
	}
	return string(out)
}

// Usage parses flag.PrintDefaults output into flag name -> usage text, with
// the continuation lines joined by spaces.
func Usage(help string) map[string]string {
	usage := map[string]string{}
	name := ""
	for _, line := range strings.Split(help, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			// "-name type" heads a block; a one-letter boolean prints
			// "-x<TAB>usage" on one line.
			var inline string
			rest, inline, _ = strings.Cut(rest, "\t")
			name, _, _ = strings.Cut(rest, " ")
			usage[name] = strings.TrimSpace(inline)
			continue
		}
		if name != "" && strings.HasPrefix(line, "    \t") {
			usage[name] = strings.TrimSpace(usage[name] + " " + strings.TrimSpace(line))
		}
	}
	return usage
}

// Check fails t for every row whose flag is missing from help or whose help
// text lacks the row's phrase.
func Check(t testing.TB, help string, rows []Row) {
	t.Helper()
	usage := Usage(help)
	for _, r := range rows {
		u, ok := usage[r.Flag]
		if !ok {
			t.Errorf("-%s: not in the help text", r.Flag)
			continue
		}
		if !strings.Contains(u, r.Doc) {
			t.Errorf("-%s: help text %q does not document %q", r.Flag, u, r.Doc)
		}
	}
}
