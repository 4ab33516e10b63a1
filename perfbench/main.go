// Command perfbench is the repository benchmark. It generates seeded inputs
// with its own code, drives one workload against the library's public entry
// points from a single process, checks every output against answers derived
// from the generator, and prints its metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a separate
// traced run times each layer from outside, by timing the calls into its
// public functions, and prints the per-layer metrics. A line before the
// result records the facts that make two runs comparable: seed, GOMAXPROCS,
// CPU count, Go version, corpus size and digests, filesystem type and, for a
// traced run, the tracing overhead.
//
// Build and run it from the repository root with perfbench/run.sh; see
// BENCHMARK.json for the workloads and metrics, and layers.json beside this
// file for which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/quals"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"alloc_mb_per_op", "MiB"},
	{"heap_retained_mb", "MiB"},
}

// perLayer are the metrics of a traced run, printed for every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"input.walk_ms", "ms"},
	{"input.read_ms", "ms"},
	{"cminor.parse_ms", "ms"},
	{"cminor.typecheck_ms", "ms"},
	{"cminor.alloc_mb", "MiB"},
	{"qdl.fingerprint_us", "us"},
	{"qdl.fingerprint_calls", "count"},
	{"qdl.load_ms", "ms"},
	{"checker.check_ms", "ms"},
	{"checker.alloc_mb", "MiB"},
	{"checker.funccache_hits", "count"},
	{"checker.funccache_misses", "count"},
	{"checker.funccache_hit_ratio", "ratio"},
	{"scheduler.workers", "count"},
	{"scheduler.steals", "count"},
	{"scheduler.parks", "count"},
	{"scheduler.speedup_vs_serial", "ratio"},
	{"cachedisk.open_ms", "ms"},
	{"cachedisk.hits", "count"},
	{"cachedisk.misses", "count"},
	{"cachedisk.puts", "count"},
	{"cachedisk.hit_ratio", "ratio"},
	{"cachedisk.record_kb", "KiB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"soundness.obligations_ms", "ms"},
	{"soundness.obligations", "count"},
	{"soundness.speedup_vs_serial", "ratio"},
	{"simplify.prove_valid_ms", "ms"},
	{"simplify.prove_refuted_ms", "ms"},
	{"simplify.prefilter_hit_ratio", "ratio"},
	{"simplify.cache_hit_ratio", "ratio"},
	{"simplify.decisions", "count"},
	{"simplify.learned_clauses", "count"},
	{"simplify.instantiations", "count"},
	{"simplify.theory_checks", "count"},
	{"simplify.ground_clauses", "count"},
	{"cert.verify_ms", "ms"},
	{"cert.steps", "count"},
	{"cert.rejected", "count"},
	{"server.check_ms_p50", "ms"},
	{"server.batch_ms_p50", "ms"},
	{"server.prove_ms_p50", "ms"},
	{"net.overhead_ms_p50", "ms"},
	{"server.funccache_hit_ratio", "ratio"},
	{"server.coalesced", "count"},
	{"server.shed", "count"},
	{"server.response_kb", "KiB"},
	{"trace.overhead_pct", "%"},
}

// sizes scales a workload. full is what the benchmark measures; tiny is for
// the self-test.
type sizes struct {
	treeFiles   int // tree-cold
	rerunFiles  int // tree-rerun
	serveFiles  int // serve-mix working set
	serveFresh  int // pre-generated fresh /check bodies per client
	serveBatch  int // files per /check-batch
	setups      int // set-ups per untraced run, reported as a median
	minOps      int // ops measured even when the time is up
	minTraceOps int
}

var fullSize = sizes{
	treeFiles: 500, rerunFiles: 1000, serveFiles: 256, serveFresh: 6000, serveBatch: 8,
	setups: 3, minOps: 10, minTraceOps: 3,
}

var tinySize = sizes{
	treeFiles: 15, rerunFiles: 20, serveFiles: 12, serveFresh: 50, serveBatch: 3,
	setups: 2, minOps: 2, minTraceOps: 1,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch space for this run; removed at exit
	traceDir string // where traced runs write their spans
	size     sizes
}

// workload is one benchmark workload. setup builds the inputs and expected
// answers, warms caches and runs one untimed warm-up op; measure runs the
// untraced measured phase; trace runs the traced run and fills layers.
type workload interface {
	setup() error
	measure(d time.Duration) (*opStats, error)
	trace(d time.Duration, layers map[string]float64) (*traceResult, error)
	facts(f map[string]any)
	close()
}

// traceResult is what a traced run reports besides its layer metrics.
type traceResult struct {
	attempted, failed int
	// sameAsUntraced reports the traced outputs equal the untraced ones.
	sameAsUntraced bool
	// untracedRate and tracedRate are items per second without and with
	// tracing.
	untracedRate, tracedRate float64
	tracer                   *tracer
}

var workloads = map[string]func(cfg *config) workload{
	"tree-cold":   func(cfg *config) workload { return newTreeWorkload(cfg, false) },
	"tree-rerun":  func(cfg *config) workload { return newTreeWorkload(cfg, true) },
	"prove-suite": func(cfg *config) workload { return newProveWorkload(cfg) },
	"serve-mix":   func(cfg *config) workload { return newServeWorkload(cfg) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: tree-cold, tree-rerun, prove-suite or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for generated inputs and traces")
	flag.Parse()
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (tree-cold, tree-rerun, prove-suite, serve-mix), -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.size = fullSize
	base, err := filepath.Abs(*workdir)
	if err != nil {
		fatal(err)
	}
	cfg.workdir = filepath.Join(base, fmt.Sprintf("work-%s-%d", cfg.workload, os.Getpid()))
	cfg.traceDir = filepath.Join(base, "traces")
	res, facts, err := run(&cfg)
	os.RemoveAll(cfg.workdir)
	if err != nil {
		fatal(err)
	}
	printJSON(map[string]any{"facts": facts})
	printJSON(res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// run executes one untraced or traced run of cfg.workload.
func run(cfg *config) (*result, map[string]any, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	facts := map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"go_version":   runtime.Version(),
		"fs_type":      fsType(cfg.workdir),
		"quals_sha256": qualsDigest(),
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(cfg, d, facts)
	}
	return runUntraced(cfg, d, facts)
}

func runUntraced(cfg *config, d time.Duration, facts map[string]any) (*result, map[string]any, error) {
	var w workload
	var setups []float64
	for i := 0; i < cfg.size.setups; i++ {
		if w != nil {
			w.close()
		}
		w = workloads[cfg.workload](cfg)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	settle()
	st, err := w.measure(d)
	if err != nil {
		return nil, nil, err
	}
	// Two cycles: the first moves pooled objects to the victim cache, the
	// second frees them, so only what caches and state really hold remains.
	runtime.GC()
	runtime.GC()
	retained := readRuntime().liveBytes
	w.facts(facts)
	facts["setup_runs_s"] = setups
	facts["ops"] = st.attempted
	// The tail is recorded but not gated on: a tree run has too few ops for
	// its tail to be steady under the machine's bursts of interference.
	facts["op_ms_p90"] = quantile(st.durs, 0.90)
	facts["op_ms_p99"] = quantile(st.durs, 0.99)
	facts["cpu_probe_ms"] = cpuProbe()

	p50, rate := st.bestWindow()
	facts["op_ms_p50_whole_run"] = median(st.durs)
	m := map[string]float64{
		"setup_s":          median(setups),
		"items_per_s":      rate,
		"op_ms_p50":        p50,
		"alloc_mb_per_op":  float64(st.allocBytes) / mib / float64(max(st.attempted, 1)),
		"heap_retained_mb": float64(retained) / mib,
	}
	return finish(endToEnd, m, st.attempted, st.failed), facts, nil
}

func runTraced(cfg *config, d time.Duration, facts map[string]any) (*result, map[string]any, error) {
	w := workloads[cfg.workload](cfg)
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	settle()
	layers := map[string]float64{}
	tr, err := w.trace(d, layers)
	if err != nil {
		return nil, nil, err
	}
	w.facts(facts)
	failed := tr.failed
	if !tr.sameAsUntraced {
		// A traced output that differs from the untraced one is a wrong
		// answer on one side or the other.
		failed++
	}
	overhead := 0.0
	if tr.tracedRate > 0 {
		overhead = (tr.untracedRate/tr.tracedRate - 1) * 100
	}
	layers["trace.overhead_pct"] = overhead
	facts["trace_overhead_pct"] = overhead
	facts["trace_same_as_untraced"] = tr.sameAsUntraced
	facts["untraced_items_per_s"] = tr.untracedRate
	facts["traced_items_per_s"] = tr.tracedRate
	if tr.tracer != nil {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, nil, err
		}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.tracer.write(path); err != nil {
			return nil, nil, err
		}
		facts["trace_file"] = path
		facts["traced_ops"] = tr.tracer.ops
	}
	return finish(perLayer, layers, tr.attempted, failed), facts, nil
}

// settle flushes the set-up's file writes and collects its garbage, so
// that neither writeback nor a pending GC cycle lands in the measured phase.
func settle() {
	syscall.Sync()
	runtime.GC()
}

// cpuProbe times a fixed integer loop that touches no memory: the median of
// a few samples, in milliseconds. It does not feed any metric; it lets a
// reader see how fast the machine ran when two runs disagree.
func cpuProbe() float64 {
	var samples []float64
	x := uint64(1)
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		for j := 0; j < 5_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	probeSink = x
	return median(samples)
}

var probeSink uint64

// finish builds the result line: every metric in defs, 0 where absent.
func finish(defs []metricDef, values map[string]float64, attempted, failed int) *result {
	res := &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res
}

// qualsDigest fingerprints every shipped qualifier source.
func qualsDigest() string {
	srcs := quals.Sources()
	for k, v := range quals.ExtrasSources() {
		srcs[k] = v
	}
	return sourcesDigest(srcs)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0xef53:     "ext4",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
