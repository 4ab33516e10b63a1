package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/simplify"
	"repro/internal/testutil/flagdoc"
)

// TestFlagDefaultsMatchHelp checks that the help text states every flag
// default qualserve documents, with the cache capacities taken from the
// caches themselves, and that a server started without -workers and
// -queue reports GOMAXPROCS workers (pinned to 3 in the child) and twice
// that queue capacity on /metrics.
func TestFlagDefaultsMatchHelp(t *testing.T) {
	flagdoc.Check(t, flagdoc.Help(t, qualserveChild()), []flagdoc.Row{
		{Flag: "workers", Doc: "(default: all cores)"},
		{Flag: "queue", Doc: "(default: 2*workers)"},
		{Flag: "timeout", Doc: "(default 30s)"},
		{Flag: "drain", Doc: "(default 10s)"},
		{Flag: "func-cache", Doc: fmt.Sprintf("(default %d)", checker.DefaultFuncCacheCapacity)},
		{Flag: "prover-cache", Doc: fmt.Sprintf("(default %d)", simplify.DefaultCacheCapacity)},
		{Flag: "max-body", Doc: "(default 8 MiB)"},
		{Flag: "mem-limit", Doc: "(0 = off)"},
		{Flag: "breaker-threshold", Doc: "(default 3; negative = off)"},
		{Flag: "breaker-cooldown", Doc: "(default 5s)"},
		{Flag: "retry", Doc: "(default 1; negative = off)"},
		{Flag: "retry-backoff", Doc: "(default 5ms)"},
		{Flag: "max-terms", Doc: "(0 = unlimited)"},
		{Flag: "max-clauses", Doc: "(0 = unlimited)"},
		{Flag: "max-insts", Doc: "(0 = default)"},
		{Flag: "cache-budget", Doc: "(0 = default 256 MiB)"},
		{Flag: "peer-timeout", Doc: "(default 2s)"},
		{Flag: "peer-retries", Doc: "(default 1; negative = off)"},
		{Flag: "prefilter", Doc: `(default "on")`},
	})

	cmd, addr := startQualserve(t, []string{"GOMAXPROCS=3"})
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workers       int `json:"workers"`
		QueueCapacity int `json:"queue_capacity"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 3 || m.QueueCapacity != 6 {
		t.Errorf("defaults with GOMAXPROCS=3: %d workers, queue capacity %d; want 3 and 6", m.Workers, m.QueueCapacity)
	}
	stopQualserve(t, cmd)
}

// TestLearnFlagRejected: the prover has a single search engine, so the
// flag that once switched clause learning off no longer exists.
func TestLearnFlagRejected(t *testing.T) {
	cmd := qualserveChild("-learn", "off", "-addr", "127.0.0.1:0")
	// Were the flag accepted, the server would start and never return.
	timer := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	defer timer.Stop()
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -learn") {
		t.Fatalf("qualserve -learn off: %v\n%s", err, out)
	}
}
