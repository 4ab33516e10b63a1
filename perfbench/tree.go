package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cachedisk"
	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/input"
	"repro/internal/qdl"
	"repro/internal/quals"
)

// treeWorkload is tree-cold and tree-rerun.
//
// tree-cold checks the whole generated tree the way `qualcheck -r` does: a
// fresh registry load, a fresh in-memory function cache and Workers: 0 per
// pass, with no disk tier.
//
// tree-rerun is a disk-warm re-run after a small commit. Set-up makes one
// cold pass into a cachedisk store. Before each op (untimed) the previous
// commit is reverted, the records it added are removed so every op starts
// from the same store, and a new seeded edit changes one constant in about
// 1% of the files without moving a line. The op opens the store fresh and
// re-checks the whole tree through FuncCache.WithDisk.
type treeWorkload struct {
	cfg   *config
	rerun bool
	dir   string
	root  string
	store string
	corp  *corpus
	// index maps a root-relative path to its corpus index.
	index map[string]int
	// baseRecords are the store's record files after the set-up pass.
	baseRecords map[string]bool
	// edited lists the files the current commit changed; editSeq numbers
	// every edit so each one writes content never seen before.
	edited  []int
	editSeq int
	// lastDiags is the rendered output of the last untraced op, which the
	// traced run must reproduce.
	lastDiags [][]string
}

func newTreeWorkload(cfg *config, rerun bool) *treeWorkload {
	return &treeWorkload{cfg: cfg, rerun: rerun}
}

func (w *treeWorkload) files() int {
	if w.rerun {
		return w.cfg.size.rerunFiles
	}
	return w.cfg.size.treeFiles
}

func (w *treeWorkload) setup() error {
	dir, err := os.MkdirTemp(w.cfg.workdir, "tree")
	if err != nil {
		return err
	}
	w.dir = dir
	w.root = filepath.Join(w.dir, "tree")
	w.store = filepath.Join(w.dir, "store")
	w.corp = newCorpus(genTree(w.cfg.seed, w.files(), "pkg"))
	w.index = map[string]int{}
	for i, f := range w.corp.files {
		w.index[f.rel] = i
	}
	if err := w.corp.write(w.root); err != nil {
		return err
	}
	if w.rerun {
		// The cold pass that fills the store: a first `qualcheck -r
		// -cache-dir` run.
		res, err := w.pass(0)
		if err != nil {
			return err
		}
		if !w.verify(res) {
			return fmt.Errorf("cold pass: diagnostics differ from the generator's")
		}
		names, err := recordNames(w.store)
		if err != nil {
			return err
		}
		w.baseRecords = names
	}
	return w.runOps(&opStats{}, 0, 0, 1, nil)
}

func (w *treeWorkload) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

func (w *treeWorkload) facts(f map[string]any) {
	f["files"] = len(w.corp.files)
	f["functions"] = w.corp.funcs
	f["bytes"] = w.corp.bytes
	f["inputs_sha256"] = w.corp.digest()
	if w.rerun {
		f["edited_files_per_op"] = w.editsPerOp()
		f["store_records"] = len(w.baseRecords)
	}
}

func (w *treeWorkload) editsPerOp() int { return max(1, w.files()/100) }

// pass is the timed op: one whole-tree check with the given worker count.
func (w *treeWorkload) pass(workers int) (*checker.TreeResult, error) {
	reg, err := qdl.Load(quals.Sources())
	if err != nil {
		return nil, err
	}
	fc := checker.NewFuncCache(0)
	if w.rerun {
		store, err := cachedisk.Open(w.store, 0)
		if err != nil {
			return nil, err
		}
		fc.WithDisk(store)
	}
	return checker.CheckTree(context.Background(), w.root, reg, checker.TreeOptions{Workers: workers, Cache: fc})
}

// prepare is the untimed step before an op: on tree-rerun it reverts the
// previous commit, drops the records it added and applies the next one.
func (w *treeWorkload) prepare() error {
	if !w.rerun {
		return nil
	}
	for _, i := range w.edited {
		if err := writeSource(w.root, w.corp.files[i].rel, w.corp.srcs[i]); err != nil {
			return err
		}
	}
	names, err := recordNames(w.store)
	if err != nil {
		return err
	}
	for n := range names {
		if !w.baseRecords[n] {
			if err := os.Remove(filepath.Join(w.store, n)); err != nil {
				return err
			}
		}
	}
	rng := rand.New(rand.NewSource(w.cfg.seed*31 + int64(w.editSeq)))
	w.edited = rng.Perm(len(w.corp.files))[:w.editsPerOp()]
	for _, i := range w.edited {
		f := &w.corp.files[i]
		w.editSeq++
		g := f.edited(rng.Intn(len(f.funcs)), 1000+w.editSeq)
		src, _ := g.render()
		if err := writeSource(w.root, f.rel, src); err != nil {
			return err
		}
	}
	return nil
}

func recordNames(dir string) (map[string]bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(ents))
	for _, e := range ents {
		out[e.Name()] = true
	}
	return out, nil
}

// verify checks a pass against the generator's answers: every file present,
// and each file's diagnostics exactly the expected ones. It records the
// rendered diagnostics for the traced comparison.
func (w *treeWorkload) verify(res *checker.TreeResult) bool {
	if res == nil || res.Err != nil || len(res.Files) != len(w.corp.files) {
		return false
	}
	ok := true
	rendered := make([][]string, len(res.Files))
	for k, fr := range res.Files {
		i, known := w.index[fr.File]
		if !known || fr.Err != nil || !w.fileMatches(i, fr.Diags) {
			ok = false
		}
		rendered[k] = renderDiags(fr.Diags)
	}
	w.lastDiags = rendered
	return ok
}

func (w *treeWorkload) fileMatches(i int, diags []checker.Diagnostic) bool {
	return diagsMatch(w.corp.files[i].rel, w.corp.want[i], diags)
}

// diagsMatch reports whether diags are exactly the expected warnings.
func diagsMatch(rel string, want []wantDiag, diags []checker.Diagnostic) bool {
	if len(diags) != len(want) {
		return false
	}
	for j, d := range diags {
		if d.Pos.File != rel || d.Pos.Line != want[j].line || d.Code != "qual" ||
			!strings.Contains(d.Msg, "qualifier "+want[j].qual) {
			return false
		}
	}
	return true
}

func renderDiags(diags []checker.Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.String()
	}
	return out
}

type schedTotals struct{ workers, steals, parks float64 }

// runOps runs ops until d has elapsed and at least minOps ran, timing only
// the pass. With sched non-nil it accumulates the scheduler telemetry.
func (w *treeWorkload) runOps(st *opStats, workers int, d time.Duration, minOps int, sched *schedTotals) error {
	allocs := newAllocReader()
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < d; i++ {
		if err := w.prepare(); err != nil {
			return err
		}
		a0 := allocs.read()
		t0 := time.Now()
		res, err := w.pass(workers)
		dt := time.Since(t0)
		st.allocBytes += allocs.read() - a0
		if err != nil {
			return err
		}
		st.add(dt, len(w.corp.files), w.verify(res))
		if sched != nil {
			sched.workers += float64(res.Sched.Workers)
			sched.steals += float64(res.Sched.Steals)
			sched.parks += float64(res.Sched.Parks)
		}
	}
	return nil
}

func (w *treeWorkload) measure(d time.Duration) (*opStats, error) {
	st := &opStats{}
	return st, w.runOps(st, 0, d, w.cfg.size.minOps, nil)
}

// trace measures the untraced pass (Workers: 0, as `qualcheck -r` passes it)
// for scheduler, runtime and overhead figures, a serial pass for the
// speed-up, and then traced serial passes: one file at a time through
// input.Walk, Reader.ReadString, cminor.Parse, cminor.TypeCheck and
// checker.CheckWithCache with the types precomputed and Concurrency: 1.
func (w *treeWorkload) trace(d time.Duration, layers map[string]float64) (*traceResult, error) {
	minOps := w.cfg.size.minTraceOps
	untraced := &opStats{}
	var sched schedTotals
	rt0 := readRuntime()
	if err := w.runOps(untraced, 0, d*4/10, minOps, &sched); err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	want := w.lastDiags
	serial := &opStats{}
	if err := w.runOps(serial, 1, d*2/10, minOps, nil); err != nil {
		return nil, err
	}

	n := float64(untraced.attempted)
	layers["scheduler.workers"] = sched.workers / n
	layers["scheduler.steals"] = sched.steals / n
	layers["scheduler.parks"] = sched.parks / n
	layers["scheduler.speedup_vs_serial"] = median(serial.durs) / median(untraced.durs)
	layers["runtime.gc_cycles_per_op"] = float64(rt1.gcCycles-rt0.gcCycles) / n
	layers["runtime.gc_cpu_share"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)

	tr := newTracer(1)
	out := &traceResult{
		attempted:      untraced.attempted + serial.attempted,
		failed:         untraced.failed + serial.failed,
		sameAsUntraced: true,
		tracer:         tr,
	}
	var tracedDurs []float64
	var hits, misses, dHits, dMisses, dPuts, recKB float64
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < d*4/10; i++ {
		if err := w.prepare(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		got, ok, fc, store, err := w.tracedPass(tr)
		dt := time.Since(t0)
		if err != nil {
			return nil, err
		}
		tracedDurs = append(tracedDurs, ms(dt))
		out.attempted++
		if !ok {
			out.failed++
		}
		if !equalDiags(got, want) {
			out.sameAsUntraced = false
		}
		fs := fc.Stats()
		hits += float64(fs.Hits)
		misses += float64(fs.Misses)
		if store != nil {
			ds := store.Stats()
			dHits += float64(ds.Hits)
			dMisses += float64(ds.Misses)
			dPuts += float64(ds.Puts)
			if ds.Entries > 0 {
				recKB += float64(ds.Bytes) / float64(ds.Entries) / 1024
			}
		}
	}
	ops := float64(tr.ops)
	layers["input.walk_ms"] = tr.perOpMs("input.walk")
	layers["input.read_ms"] = tr.perOpMs("input.read")
	layers["cminor.parse_ms"] = tr.perOpMs("cminor.parse")
	layers["cminor.typecheck_ms"] = tr.perOpMs("cminor.typecheck")
	layers["cminor.alloc_mb"] = tr.perOpMiB("cminor.parse", "cminor.typecheck")
	layers["qdl.load_ms"] = tr.perOpMs("qdl.load")
	layers["checker.check_ms"] = tr.perOpMs("checker.check")
	layers["checker.alloc_mb"] = tr.perOpMiB("checker.check")
	layers["checker.funccache_hits"] = hits / ops
	layers["checker.funccache_misses"] = misses / ops
	layers["checker.funccache_hit_ratio"] = ratio(hits, hits+misses)
	layers["cachedisk.open_ms"] = tr.perOpMs("cachedisk.open")
	layers["cachedisk.hits"] = dHits / ops
	layers["cachedisk.misses"] = dMisses / ops
	layers["cachedisk.puts"] = dPuts / ops
	layers["cachedisk.hit_ratio"] = ratio(dHits, dHits+dMisses)
	layers["cachedisk.record_kb"] = recKB / ops
	// Every file checked through a function cache derives one context key,
	// and each key hashes the registry fingerprint.
	layers["qdl.fingerprint_calls"] = float64(len(w.corp.files))
	us, err := fingerprintMicros()
	if err != nil {
		return nil, err
	}
	layers["qdl.fingerprint_us"] = us

	files := float64(len(w.corp.files))
	out.untracedRate = files / (median(untraced.durs) / 1e3)
	out.tracedRate = files / (median(tracedDurs) / 1e3)
	return out, nil
}

// tracedPass is one serial pass with a span around every call into a layer.
func (w *treeWorkload) tracedPass(tr *tracer) ([][]string, bool, *checker.FuncCache, *cachedisk.Store, error) {
	defer tr.endOp()
	op := tr.begin("op", -1)
	defer tr.end(op)
	s := tr.begin("qdl.load", op)
	reg, err := qdl.Load(quals.Sources())
	tr.end(s)
	if err != nil {
		return nil, false, nil, nil, err
	}
	fc := checker.NewFuncCache(0)
	var store *cachedisk.Store
	if w.rerun {
		s = tr.begin("cachedisk.open", op)
		store, err = cachedisk.Open(w.store, 0)
		tr.end(s)
		if err != nil {
			return nil, false, nil, nil, err
		}
		fc.WithDisk(store)
	}
	s = tr.begin("input.walk", op)
	files, _, err := input.Walk(w.root, input.WalkOptions{})
	tr.end(s)
	if err != nil {
		return nil, false, nil, nil, err
	}
	ok := len(files) == len(w.corp.files)
	names := reg.Names()
	reader := input.NewReader()
	ctx := context.Background()
	rendered := make([][]string, len(files))
	for k, f := range files {
		fs := tr.begin("file", op)
		s = tr.begin("input.read", fs)
		src, err := reader.ReadString(f.Path, input.DefaultMaxFileBytes)
		tr.end(s)
		if err != nil {
			return nil, false, nil, nil, err
		}
		s = tr.begin("cminor.parse", fs)
		prog, err := cminor.Parse(f.Rel, src, names)
		tr.end(s)
		if err != nil {
			return nil, false, nil, nil, err
		}
		s = tr.begin("cminor.typecheck", fs)
		info, tdiags := cminor.TypeCheck(prog)
		tr.end(s)
		s = tr.begin("checker.check", fs)
		res := checker.CheckWithCache(ctx, prog, reg, checker.Options{Types: info, TypeDiags: tdiags, Concurrency: 1}, fc)
		tr.end(s)
		tr.end(fs)
		i, known := w.index[f.Rel]
		if !known || res.Err != nil || !w.fileMatches(i, res.Diags) {
			ok = false
		}
		rendered[k] = renderDiags(res.Diags)
	}
	return rendered, ok, fc, store, nil
}

func equalDiags(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// fingerprintMicros is the median time of one Registry.Fingerprint call on
// a freshly loaded standard registry, in microseconds.
func fingerprintMicros() (float64, error) {
	var samples []float64
	for i := 0; i < 5; i++ {
		reg, err := qdl.Load(quals.Sources())
		if err != nil {
			return 0, err
		}
		for j := 0; j < 10; j++ {
			t0 := time.Now()
			reg.Fingerprint()
			samples = append(samples, float64(time.Since(t0))/1e3)
		}
	}
	return median(samples), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
