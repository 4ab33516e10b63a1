// Command qualcheck is the extensible typechecker's CLI (the counterpart of
// the paper's CIL module): it loads qualifier definitions, typechecks a
// cminor program against their type rules, and prints any warnings.
//
// Usage:
//
//	qualcheck [-quals file.qdl ...] [-taint] [-stats] program.c
//	qualcheck -corpus grep-dfa|bftpd|bftpd-fixed|mingetty|identd [-stats]
//	qualcheck -r dir [-j N] [-stats] [-cache-dir dir] [-cache-budget N]
//	qualcheck -watch dir [-debounce d] [-poll d] [-j N] [-cache-dir dir]
//
// With -r, qualcheck checks every .c file under the directory tree
// (skipping vendor/, testdata/, and hidden directories) over a work-stealing
// scheduler bounded by -j. Diagnostics are printed in deterministic
// path/line order regardless of the worker count.
//
// With -cache-dir, the function-result cache is persisted to disk as
// checksummed, crash-safe records, so a later run (or a -watch daemon
// restarted after a crash) starts warm instead of re-walking every
// function. Corrupt or torn records are detected, evicted, and re-proved —
// never trusted. -cache-budget bounds the directory's size in bytes; the
// least recently used records are evicted past it. With -r, -stats and
// -cache-stats label each function-cache line by scope: "function cache
// (run)" counts the whole run (hits from any tier), "function cache
// (memory)" the in-memory tier alone, and "disk cache" the disk store.
//
// With -watch, qualcheck becomes a resident incremental checker: one full
// tree pass, then re-checking only what changes, pushing diagnostics as
// JSONL events on stdout. Changes are detected via fs notifications
// debounced by -debounce, or by rescanning every -poll when set (or when
// notifications are unavailable). SIGUSR1 pushes a stats event; Ctrl-C
// exits cleanly with a final stats event.
//
// Without -quals, the standard qualifier library (pos, neg, nonzero,
// nonnull, tainted, untainted, unique, unaliased) is loaded; -taint loads
// the section 6.3 taintedness configuration instead (untainted with the
// constants-are-trusted clause, plus tainted).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cachedisk"
	"repro/internal/checker"
	"repro/internal/cminor"
	"repro/internal/corpus"
	"repro/internal/input"
	"repro/internal/profiling"
	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/watch"
)

// stopProfiles flushes any active pprof profiles; set once in main, and
// called on every exit path (deferred calls do not survive os.Exit).
var stopProfiles = func() {}

// exit flushes profiles and terminates with the given status.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var qualFiles stringList
	flag.Var(&qualFiles, "quals", "qualifier definition file (repeatable; default: standard library)")
	taint := flag.Bool("taint", false, "use the taintedness configuration (untainted with constant case, tainted)")
	stats := flag.Bool("stats", false, "print checking statistics")
	corpusName := flag.String("corpus", "", "check a built-in corpus program instead of a file")
	infer := flag.String("infer", "", "comma-separated value qualifiers to infer before checking (section 8 extension)")
	flow := flag.Bool("flow", false, "enable flow-sensitive refinement of branch conditions (section 8 extension)")
	header := flag.String("header", "", "prepend alternate library signatures from this file (section 3.3's header replacement)")
	jobs := flag.Int("j", 0, "number of functions checked concurrently (default: all cores)")
	treeRoot := flag.String("r", "", "check every .c file under this directory tree instead of one file")
	watchDir := flag.String("watch", "", "run as a resident incremental checker over this directory tree (JSONL events on stdout)")
	debounce := flag.Duration("debounce", watch.DefaultDebounce, "with -watch: quiet window before a change burst is re-checked")
	poll := flag.Duration("poll", 0, "with -watch: rescan interval replacing fs notifications (0 = use notifications)")
	maxFiles := flag.Int("max-files", 0, "with -r/-watch: stop the walk after this many files (0 = unlimited)")
	cacheDir := flag.String("cache-dir", "", "with -r/-watch: persist the function cache under this directory so later runs start warm")
	cacheBudget := flag.Int64("cache-budget", 0, "with -cache-dir: total record bytes kept on disk before LRU eviction (0 = default 256 MiB)")
	cacheStats := flag.Bool("cache-stats", false, "print cache statistics after checking: the derivation memo, or with -r the function cache's memory and disk tiers")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget for the check; 0 means unlimited")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	stop, perr := profiling.Start(*cpuprofile, *memprofile)
	if perr != nil {
		fatal(perr)
	}
	stopProfiles = stop
	defer stopProfiles()

	// Ctrl-C / SIGTERM (and -timeout) cut the function walk short; the run
	// then reports what it has and exits non-zero as inconclusive.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	reg, err := loadRegistry(qualFiles, *taint)
	if err != nil {
		fatal(err)
	}

	if *watchDir != "" {
		runWatch(ctx, *watchDir, reg, watch.Options{
			Checker:  checker.Options{FlowSensitive: *flow},
			Walk:     input.WalkOptions{MaxFiles: *maxFiles},
			Workers:  *jobs,
			Seed:     1,
			Debounce: *debounce,
			Poll:     *poll,
			Cache:    openFuncCache(*cacheDir, *cacheBudget),
		})
		return
	}
	if *treeRoot != "" {
		runTree(ctx, *treeRoot, reg, *jobs, *flow, *stats, *cacheStats, *maxFiles, *cacheDir, *cacheBudget)
		return
	}

	var name, source string
	switch {
	case *corpusName != "":
		p, ok := findCorpus(*corpusName)
		if !ok {
			fatal(fmt.Errorf("unknown corpus program %q", *corpusName))
		}
		name, source = p.Name+".c", p.Source
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		name, source = flag.Arg(0), string(data)
	default:
		flag.Usage()
		exit(2)
	}

	if *header != "" {
		data, err := os.ReadFile(*header)
		if err != nil {
			fatal(err)
		}
		// Annotated library prototypes come first so they take precedence
		// over the program's own unannotated declarations.
		source = string(data) + "\n" + source
	}
	prog, err := cminor.Parse(name, source, reg.Names())
	if err != nil {
		fatal(err)
	}
	if *infer != "" {
		inferred, err := checker.Infer(prog, reg, strings.Split(*infer, ","))
		if err != nil {
			fatal(err)
		}
		for _, a := range inferred {
			fmt.Println("inferred:", a)
		}
	}
	start := time.Now()
	res := checker.CheckWithContext(ctx, prog, reg, checker.Options{FlowSensitive: *flow, Concurrency: *jobs})
	for _, d := range res.Diags {
		fmt.Println(d)
	}
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "qualcheck: check stopped after %v: %v (results are incomplete)\n",
			time.Since(start).Round(time.Millisecond), res.Err)
		exit(2)
	}
	if *stats {
		printStats(res)
	}
	if *cacheStats {
		total := res.Stats.MemoHits + res.Stats.MemoMisses
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(res.Stats.MemoHits) / float64(total)
		}
		fmt.Printf("derivation memo: %d hits, %d misses (%.1f%% hit rate)\n",
			res.Stats.MemoHits, res.Stats.MemoMisses, rate)
	}
	if len(res.Diags) == 0 {
		fmt.Printf("%s: no qualifier warnings\n", name)
	} else {
		fmt.Printf("%s: %d warning(s)\n", name, len(res.Diags))
		exit(1)
	}
}

// runWatch is the -watch mode: a resident daemon pushing JSONL diagnostic
// events. SIGUSR1 emits a telemetry snapshot at any time; shutdown is via
// the signal context (Ctrl-C / SIGTERM), which is a clean exit.
func runWatch(ctx context.Context, root string, reg *qdl.Registry, opts watch.Options) {
	d, err := watch.New(root, reg, opts)
	if err != nil {
		fatal(err)
	}
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer signal.Stop(usr1)
	go func() {
		for range usr1 {
			d.EmitStats()
		}
	}()
	if err := d.Run(ctx); err != nil && ctx.Err() == nil {
		fatal(err)
	}
}

// openFuncCache builds the function cache for -r/-watch runs, attaching the
// disk tier when -cache-dir is set. A directory that cannot be opened is a
// warning, not a failure: the run degrades to memory-only, matching the
// store's own breaker behavior for mid-run disk faults.
func openFuncCache(dir string, budget int64) *checker.FuncCache {
	fc := checker.NewFuncCache(0)
	if dir == "" {
		return fc
	}
	store, err := cachedisk.Open(filepath.Join(dir, "func"), budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qualcheck: cache dir unusable, running memory-only: %v\n", err)
		return fc
	}
	fc.WithDisk(store)
	return fc
}

// runTree is the -r mode: repo-scale checking over the work-stealing
// scheduler. Exit status matches the single-file mode: 1 for warnings, 2 for
// read/parse failures or an interrupted run, 0 for a clean tree.
func runTree(ctx context.Context, root string, reg *qdl.Registry, jobs int, flow, stats, cacheStats bool, maxFiles int, cacheDir string, cacheBudget int64) {
	fc := openFuncCache(cacheDir, cacheBudget)
	res, err := checker.CheckTree(ctx, root, reg, checker.TreeOptions{
		Options: checker.Options{FlowSensitive: flow},
		Workers: jobs,
		Seed:    1,
		Walk:    input.WalkOptions{MaxFiles: maxFiles},
		Cache:   fc,
	})
	if err != nil {
		fatal(err)
	}
	warnings, failures := 0, 0
	for _, fr := range res.Files {
		if fr.Err != nil {
			fmt.Fprintf(os.Stderr, "qualcheck: %s: %v\n", fr.File, fr.Err)
			failures++
			continue
		}
		for _, d := range fr.Diags {
			fmt.Println(d)
			warnings++
		}
	}
	if stats {
		printTreeStats(res)
	}
	if cacheStats {
		st := fc.Stats()
		fmt.Printf("function cache (memory): %d hits, %d misses, %d coalesced, %d evictions, %d rejected (%.1f%% hit rate)\n",
			st.Hits, st.Misses, st.Coalesced, st.Evictions, st.Rejected, 100*st.HitRate())
		if cacheDir != "" {
			ds := fc.DiskStats()
			fmt.Printf("disk cache: %d hits, %d misses, %d puts, %d entries, %d bytes, %d corrupt evicted, %d budget evicted\n",
				ds.Hits, ds.Misses, ds.Puts, ds.Entries, ds.Bytes, ds.CorruptEvicted, ds.BudgetEvicted)
		}
	}
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "qualcheck: tree check stopped: %v (results are incomplete)\n", res.Err)
		exit(2)
	}
	fmt.Printf("%s: %d file(s), %d warning(s)\n", root, len(res.Files), warnings)
	switch {
	case failures > 0:
		exit(2)
	case warnings > 0:
		exit(1)
	}
}

// printTreeStats reports the run's scheduler, reader, and checking
// telemetry: the utilization profile answers "did the tree decompose", the
// steal count answers "did idle workers find the work".
func printTreeStats(res *checker.TreeResult) {
	trunc := ""
	if res.Walk.Truncated {
		trunc = " [truncated: -max-files cap hit, tree only partially checked]"
	}
	fmt.Printf("files: %d matched, %d skipped dirs, %d symlinks skipped, %d over size cap, %d vanished, %d bytes%s\n",
		res.Walk.Matched, res.Walk.SkippedDirs, res.Walk.Symlinks, res.Walk.TooLarge, res.Walk.Vanished, res.Walk.TotalBytes, trunc)
	fmt.Printf("throughput: %.1f files/s (%.3fs wall)\n", res.FilesPerSec(), res.Duration.Seconds())
	s := res.Sched
	fmt.Printf("scheduler: %d workers, %d file tasks, %d function units, %d steals, %d injector grabs, %d parks\n",
		s.Workers, s.Submitted, s.Spawned, s.Steals, s.InjectorGrabs, s.Parks)
	fmt.Printf("per-worker executed: %v\n", s.PerWorker)
	fmt.Printf("reader: %d files, %d bytes, %d pooled reuses, %d grows\n",
		res.Read.Files, res.Read.Bytes, res.Read.Reuses, res.Read.Grows)
	fmt.Printf("dereferences: %d\n", res.Stats.Dereferences)
	fmt.Printf("restrict checks: %d (%d failed)\n", res.Stats.RestrictChecks, res.Stats.RestrictFailures)
	fmt.Printf("function cache (run): %d hits, %d misses, %d coalesced\n",
		res.Stats.FuncCacheHits, res.Stats.FuncCacheMisses, res.Stats.FuncCacheCoalesced)
}

func loadRegistry(files stringList, taint bool) (*qdl.Registry, error) {
	if len(files) > 0 {
		sources := map[string]string{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			sources[f] = string(data)
		}
		return qdl.Load(sources)
	}
	if taint {
		return quals.TaintWithConstants()
	}
	return quals.Standard()
}

func findCorpus(name string) (corpus.Program, bool) {
	all := append(corpus.All(), corpus.BftpdFixed(), corpus.BftpdExploit())
	for _, p := range all {
		if p.Name == name {
			return p, true
		}
	}
	return corpus.Program{}, false
}

func printStats(res *checker.Result) {
	fmt.Printf("dereferences: %d\n", res.Stats.Dereferences)
	fmt.Printf("restrict checks: %d (%d failed)\n", res.Stats.RestrictChecks, res.Stats.RestrictFailures)
	keys := make([]string, 0, len(res.Stats.Annotations))
	for k := range res.Stats.Annotations {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("annotations[%s]: %d\n", k, res.Stats.Annotations[k])
	}
	keys = keys[:0]
	for k := range res.Stats.QualCasts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("casts[%s]: %d\n", k, res.Stats.QualCasts[k])
	}
	fmt.Printf("value-qualified casts to instrument: %d\n", len(res.Casts))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qualcheck:", err)
	exit(2)
}
