package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the smoke-test child: when re-executed with
// QUALSERVE_SMOKE_CHILD=1 the test binary runs the real main loop, so the
// smoke test exercises the actual flag parsing, signal handling, and
// graceful drain of the shipped binary without needing a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("QUALSERVE_SMOKE_CHILD") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

func qualserveChild(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QUALSERVE_SMOKE_CHILD=1")
	return cmd
}

// startQualserve starts the qualserve child on an ephemeral port, with env
// added to its environment, and returns it with the address it announced.
// A child still running at cleanup is killed.
func startQualserve(t *testing.T, env []string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := qualserveChild(append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(cmd.Env, env...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "qualserve listening on "); ok {
				addrCh <- rest
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the listening announcement")
	}
	return nil, ""
}

// stopQualserve sends SIGTERM and requires a clean drained exit.
func stopQualserve(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("qualserve exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("qualserve did not exit within 15s of SIGTERM")
	}
}

// TestQualserveSmoke starts qualserve on an ephemeral port, performs one
// /check round-trip, sends SIGTERM, and requires a clean drained exit.
func TestQualserveSmoke(t *testing.T) {
	cmd, addr := startQualserve(t, nil, "-drain", "5s")

	body, _ := json.Marshal(map[string]any{
		"filename": "smoke.c",
		"source":   "int main() { int x = 1; return x; }",
	})
	resp, err := http.Post(fmt.Sprintf("http://%s/check", addr), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /check: %v", err)
	}
	var checkResp struct {
		Warnings int `json:"warnings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&checkResp); err != nil {
		t.Fatalf("decoding /check response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /check: status %d", resp.StatusCode)
	}
	if checkResp.Warnings != 0 {
		t.Fatalf("smoke program reported %d warnings, want 0", checkResp.Warnings)
	}

	stopQualserve(t, cmd)
}
