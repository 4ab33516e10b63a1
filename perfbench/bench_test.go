package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// These are the benchmark's self-tests, run at tiny size:
//
//	cd perfbench && go test ./...

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	dir := t.TempDir()
	return &config{
		workload: workload,
		seed:     3,
		seconds:  0.2,
		trace:    trace,
		workdir:  filepath.Join(dir, "work"),
		traceDir: filepath.Join(dir, "traces"),
		size:     tinySize,
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmark(t)
	check := func(kind string, got []metricDef, want []benchMetric) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json names %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}

	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers map[string]struct {
			Metrics []string `json:"metrics"`
			Moves   []string `json:"moves"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	e2e := map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	for name, l := range doc.Layers {
		for _, m := range l.Metrics {
			mapped[m] = true
		}
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("layers.json: layer %s moves unknown end-to-end metric %s", name, m)
			}
		}
	}
	for _, m := range b.PerLayer {
		if !mapped[m.Name] {
			t.Errorf("layers.json does not map per-layer metric %s", m.Name)
		}
	}
}

// TestEveryWorkloadPrintsItsMetrics runs every workload untraced and traced
// and checks that each metric BENCHMARK.json names is printed with its unit,
// that every op passed its oracle, and that the comparability facts are
// recorded.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	b := loadBenchmark(t)
	for _, wl := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, wl.Name, trace)
			res, facts, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
			for _, k := range []string{"seed", "gomaxprocs", "nproc", "go_version", "inputs_sha256", "quals_sha256", "fs_type"} {
				if _, ok := facts[k]; !ok {
					t.Errorf("%s trace=%v: fact %s missing", wl.Name, trace, k)
				}
			}
			if trace {
				if same, _ := facts["trace_same_as_untraced"].(bool); !same {
					t.Errorf("%s: traced outputs differ from untraced ones", wl.Name)
				}
				if _, ok := facts["trace_overhead_pct"]; !ok {
					t.Errorf("%s: tracing overhead not recorded", wl.Name)
				}
			}
		}
	}
}

// TestOracleCountsAlteredAnswerAsFailed alters each workload's expected
// answer after set-up and checks that the ops it covers count as failed.
func TestOracleCountsAlteredAnswerAsFailed(t *testing.T) {
	bogus := wantDiag{line: 1, qual: "pos"}
	for name, mk := range workloads {
		cfg := tinyConfig(t, name, false)
		if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
			t.Fatal(err)
		}
		w := mk(cfg)
		if err := w.setup(); err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		switch w := w.(type) {
		case *treeWorkload:
			w.corp.want[0] = append(w.corp.want[0], bogus)
		case *proveWorkload:
			w.want.mutFailures++
		case *serveWorkload:
			for i := range w.corp.want {
				w.corp.want[i] = append(w.corp.want[i], bogus)
			}
		default:
			t.Fatalf("%s: no way to alter its expected answer", name)
		}
		st, err := w.measure(50 * time.Millisecond)
		w.close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.failed == 0 {
			t.Errorf("%s: %d ops with an altered expected answer, none counted as failed", name, st.attempted)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a := newCorpus(genTree(5, 40, "pkg")).digest()
	b := newCorpus(genTree(5, 40, "pkg")).digest()
	c := newCorpus(genTree(6, 40, "pkg")).digest()
	if a != b {
		t.Error("same seed gave different inputs")
	}
	if a == c {
		t.Error("different seeds gave the same inputs")
	}
}

// TestEditKeepsLinesAndAnswers checks the tree-rerun edit contract: an edit
// changes the source but neither its line count nor its expected answer.
func TestEditKeepsLinesAndAnswers(t *testing.T) {
	for _, f := range genTree(9, 20, "pkg") {
		src, want := f.render()
		for j := range f.funcs {
			g := f.edited(j, 123456)
			esrc, ewant := g.render()
			if esrc == src {
				t.Fatalf("%s: edit of function %d changed nothing", f.rel, j)
			}
			if countLines(esrc) != countLines(src) || len(ewant) != len(want) {
				t.Fatalf("%s: edit of function %d moved lines or answers", f.rel, j)
			}
			for k := range want {
				if want[k] != ewant[k] {
					t.Fatalf("%s: edit of function %d changed expected diagnostic %d", f.rel, j, k)
				}
			}
		}
	}
}

func countLines(s string) int {
	n := 0
	for _, c := range s {
		if c == '\n' {
			n++
		}
	}
	return n
}
