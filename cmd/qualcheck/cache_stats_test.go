package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// TestTreeCacheStatsLabels runs `qualcheck -r -stats -cache-stats` twice over
// one -cache-dir and checks the disk-warm run's telemetry: every stat line
// carries its own label, and the run's function-cache hits are exactly the
// memory tier's hits plus the disk tier's.
func TestTreeCacheStatsLabels(t *testing.T) {
	tree := filepath.Join(t.TempDir(), "tree")
	if _, err := corpus.WriteTree(tree, 20, 42); err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	run := func() string {
		cmd := exec.Command(os.Args[0], "-r", tree, "-j", "1", "-stats", "-cache-stats", "-cache-dir", cacheDir)
		cmd.Env = append(os.Environ(), "QUALCHECK_SMOKE_CHILD=1")
		out, err := cmd.Output()
		if ee, ok := err.(*exec.ExitError); err != nil && (!ok || ee.ExitCode() != 1) {
			t.Fatalf("qualcheck -r: %v\n%s", err, out)
		}
		return string(out)
	}
	run()
	out := run()

	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if diagLineRe.MatchString(line) {
			continue
		}
		label, _, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if seen[label] {
			t.Errorf("label %q printed twice:\n%s", label, out)
		}
		seen[label] = true
	}

	counts := func(label string) (hits, misses int) {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(label) + `: (\d+) hits, (\d+) misses`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no %q line in:\n%s", label, out)
		}
		hits, _ = strconv.Atoi(m[1])
		misses, _ = strconv.Atoi(m[2])
		return hits, misses
	}
	runHits, runMisses := counts("function cache (run)")
	memHits, _ := counts("function cache (memory)")
	diskHits, _ := counts("disk cache")
	if runMisses != 0 {
		t.Errorf("disk-warm run walked %d functions, want 0", runMisses)
	}
	if diskHits == 0 || runHits != memHits+diskHits {
		t.Errorf("run hits %d, want memory hits %d + disk hits %d (disk > 0)", runHits, memHits, diskHits)
	}
}
