package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cert"
	"repro/internal/qdl"
	"repro/internal/quals"
	"repro/internal/simplify"
	"repro/internal/soundness"
)

// proveWorkload is prove-suite: soundness.ProveAll over the standard library
// plus the extras with certificates on and a fresh prover cache per op,
// followed by the paper's six unsound mutations (sections 2.1.3 and 2.2.3),
// which the benchmark builds itself from the public qualifier sources.
type proveWorkload struct {
	cfg       *config
	suite     map[string]string
	mutations []mutation
	opts      soundness.Options
	// base is the prover over the standard axioms that the traced run
	// forks per op, as soundness does internally.
	base *simplify.Prover
	// want is the suite's expected shape.
	want proveShape
	// lastVerdicts is the per-obligation validity of the last untraced op,
	// which the traced run must reproduce.
	lastVerdicts []bool
}

// proveShape is the expected shape of one op's verdicts.
type proveShape struct {
	suiteQuals, suiteObls, suiteCerts, mutations, mutObls, mutFailures int
}

type mutation struct {
	name, qual string
	srcs       map[string]string
}

// wantShape is the suite's expected shape. Every shipped qualifier is
// sound; the obligations of flow qualifiers are vacuous and carry no
// certificate; each of the six mutations is caught.
var wantShape = proveShape{suiteQuals: 13, suiteObls: 46, suiteCerts: 42, mutations: 6, mutObls: 40, mutFailures: 11}

func newProveWorkload(cfg *config) *proveWorkload {
	return &proveWorkload{cfg: cfg, want: wantShape}
}

func (s proveShape) obligations() int { return s.suiteObls + s.mutObls }

// buildMutations breaks one rule of a shipped qualifier per case.
func buildMutations() []mutation {
	with := func(file, src string, others map[string]string) map[string]string {
		out := map[string]string{file: src}
		for k, v := range others {
			out[k] = v
		}
		return out
	}
	return []mutation{
		{"pos with E1 - E2", "pos", with("pos.qdl", strings.Replace(quals.Pos, "E1 * E2", "E1 - E2", 1), map[string]string{"neg.qdl": quals.Neg})},
		{"pos with C >= 0", "pos", with("pos.qdl", strings.Replace(quals.Pos, "C > 0", "C >= 0", 1), map[string]string{"neg.qdl": quals.Neg})},
		{"neg with E1 * E2", "neg", with("neg.qdl", strings.Replace(quals.Neg, "E1 + E2", "E1 * E2", 1), map[string]string{"pos.qdl": quals.Pos})},
		{"unique without disallow L", "unique", with("unique.qdl", strings.Replace(quals.Unique, "disallow L\n", "", 1), nil)},
		{"unaliased without disallow &X", "unaliased", with("unaliased.qdl", strings.Replace(quals.Unaliased, "disallow &X\n", "", 1), nil)},
		{"constq without noassign", "constq", with("constq.qdl", strings.Replace(quals.Constq, "  noassign\n", "", 1), nil)},
	}
}

func (w *proveWorkload) setup() error {
	w.suite = quals.Sources()
	for k, v := range quals.ExtrasSources() {
		w.suite[k] = v
	}
	w.mutations = buildMutations()
	for _, m := range w.mutations {
		if src := m.srcs[m.qual+".qdl"]; src == quals.Pos || src == quals.Neg || src == quals.Unique ||
			src == quals.Unaliased || src == quals.Constq {
			return fmt.Errorf("mutation %q did not change its qualifier", m.name)
		}
	}
	w.opts = soundness.DefaultOptions()
	w.opts.Prover.EmitCertificates = true
	w.base = simplify.New(soundness.Axioms(), w.opts.Prover)
	st := &opStats{}
	if err := w.runOps(st, 0, 0, 1); err != nil {
		return err
	}
	if st.failed > 0 {
		return fmt.Errorf("warm-up op failed its oracle")
	}
	return nil
}

func (w *proveWorkload) close() {}

func (w *proveWorkload) facts(f map[string]any) {
	f["qualifiers"] = w.want.suiteQuals
	f["mutations"] = len(w.mutations)
	f["obligations_per_op"] = w.want.obligations()
	srcs := map[string]string{}
	for _, m := range w.mutations {
		for k, v := range m.srcs {
			srcs[m.name+"/"+k] = v
		}
	}
	f["inputs_sha256"] = sourcesDigest(srcs)
}

// suiteOp is the timed op: prove the suite, then every mutation, sharing
// one fresh prover cache.
func (w *proveWorkload) suiteOp(concurrency int) (suite, muts []*soundness.Report, err error) {
	reg, err := qdl.Load(w.suite)
	if err != nil {
		return nil, nil, err
	}
	opts := w.opts
	opts.Concurrency = concurrency
	opts.Cache = simplify.NewCache(0)
	suite, err = soundness.ProveAll(reg, opts)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range w.mutations {
		mreg, err := qdl.Load(m.srcs)
		if err != nil {
			return nil, nil, err
		}
		rep, err := soundness.Prove(mreg.Lookup(m.qual), mreg, opts)
		if err != nil {
			return nil, nil, err
		}
		muts = append(muts, rep)
	}
	return suite, muts, nil
}

// verdict is one obligation's outcome as the oracle sees it.
type verdict struct {
	valid     bool
	vacuous   bool
	transient bool
	crt       *cert.Certificate
}

// check is the oracle: the suite is sound with a certificate that
// passes an independent cert.Verify behind every non-vacuous Valid, and
// every mutation is caught by a genuine refutation rather than a cut-short
// search. suite and muts hold one slice of verdicts per qualifier.
func (s proveShape) check(suite, muts [][]verdict) bool {
	if len(suite) != s.suiteQuals || len(muts) != s.mutations {
		return false
	}
	obls, certs := 0, 0
	for _, q := range suite {
		for _, v := range q {
			obls++
			if !v.valid {
				return false
			}
			if v.vacuous {
				continue
			}
			if v.crt == nil || cert.Verify(v.crt) != nil {
				return false
			}
			certs++
		}
	}
	if obls != s.suiteObls || certs != s.suiteCerts {
		return false
	}
	obls, failures := 0, 0
	for _, q := range muts {
		caught := false
		for _, v := range q {
			obls++
			if v.valid {
				continue
			}
			if v.transient {
				return false
			}
			caught = true
			failures++
		}
		if !caught {
			return false
		}
	}
	return obls == s.mutObls && failures == s.mutFailures
}

func reportVerdicts(reps []*soundness.Report) [][]verdict {
	out := make([][]verdict, len(reps))
	for i, r := range reps {
		if r.Err != nil {
			out[i] = []verdict{{transient: true}}
			continue
		}
		for _, res := range r.Results {
			out[i] = append(out[i], verdict{
				valid:     res.Valid,
				vacuous:   res.Obligation.Vacuous,
				transient: simplify.TransientReason(res.Outcome.Reason),
				crt:       res.Outcome.Certificate,
			})
		}
	}
	return out
}

func flatValid(groups ...[][]verdict) []bool {
	var out []bool
	for _, g := range groups {
		for _, q := range g {
			for _, v := range q {
				out = append(out, v.valid)
			}
		}
	}
	return out
}

func (w *proveWorkload) runOps(st *opStats, concurrency int, d time.Duration, minOps int) error {
	allocs := newAllocReader()
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < d; i++ {
		a0 := allocs.read()
		t0 := time.Now()
		suite, muts, err := w.suiteOp(concurrency)
		dt := time.Since(t0)
		st.allocBytes += allocs.read() - a0
		if err != nil {
			return err
		}
		sv, mv := reportVerdicts(suite), reportVerdicts(muts)
		w.lastVerdicts = flatValid(sv, mv)
		st.add(dt, w.want.obligations(), w.want.check(sv, mv))
	}
	return nil
}

func (w *proveWorkload) measure(d time.Duration) (*opStats, error) {
	st := &opStats{}
	return st, w.runOps(st, 0, d, w.cfg.size.minOps)
}

// trace measures the untraced suite (default concurrency) and a serial one
// for the speed-up, then traced serial ops that call soundness.Obligations,
// Prover.ProveContext and cert.Verify one obligation at a time.
func (w *proveWorkload) trace(d time.Duration, layers map[string]float64) (*traceResult, error) {
	minOps := w.cfg.size.minTraceOps
	untraced := &opStats{}
	rt0 := readRuntime()
	if err := w.runOps(untraced, 0, d*4/10, minOps); err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	want := w.lastVerdicts
	serial := &opStats{}
	if err := w.runOps(serial, 1, d*2/10, minOps); err != nil {
		return nil, err
	}
	n := float64(untraced.attempted)
	layers["soundness.speedup_vs_serial"] = median(serial.durs) / median(untraced.durs)
	layers["runtime.gc_cycles_per_op"] = float64(rt1.gcCycles-rt0.gcCycles) / n
	layers["runtime.gc_cpu_share"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)

	tr := newTracer(1)
	out := &traceResult{
		attempted:      untraced.attempted + serial.attempted,
		failed:         untraced.failed + serial.failed,
		sameAsUntraced: true,
		tracer:         tr,
	}
	var tot simplify.Stats
	var calls, cacheHits, steps, rejected float64
	var durs []float64
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < d*4/10; i++ {
		t0 := time.Now()
		suite, muts, c, err := w.tracedOp(tr)
		durs = append(durs, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		out.attempted++
		if !w.want.check(suite, muts) {
			out.failed++
		}
		if !equalBools(flatValid(suite, muts), want) {
			out.sameAsUntraced = false
		}
		tot.Add(c.stats)
		calls += c.calls
		cacheHits += c.cacheHits
		steps += c.steps
		rejected += c.rejected
	}
	ops := float64(tr.ops)
	layers["qdl.load_ms"] = tr.perOpMs("qdl.load")
	layers["soundness.obligations_ms"] = tr.perOpMs("soundness.obligations")
	layers["soundness.obligations"] = float64(w.want.obligations())
	layers["simplify.prove_valid_ms"] = tr.perOpMs("simplify.prove_valid")
	layers["simplify.prove_refuted_ms"] = tr.perOpMs("simplify.prove_refuted")
	layers["simplify.prefilter_hit_ratio"] = ratio(float64(tot.PrefilterGround+tot.PrefilterUnit+tot.PrefilterInterval), float64(tot.PrefilterAttempts))
	layers["simplify.cache_hit_ratio"] = ratio(cacheHits, calls)
	layers["simplify.decisions"] = float64(tot.Decisions) / ops
	layers["simplify.learned_clauses"] = float64(tot.LearnedClauses) / ops
	layers["simplify.instantiations"] = float64(tot.Instantiations) / ops
	layers["simplify.theory_checks"] = float64(tot.TheoryChecks) / ops
	layers["simplify.ground_clauses"] = float64(tot.GroundClauses) / ops
	layers["cert.verify_ms"] = tr.perOpMs("cert.verify")
	layers["cert.steps"] = steps / ops
	layers["cert.rejected"] = (rejected + float64(tot.CertsRejected)) / ops

	obls := float64(w.want.obligations())
	out.untracedRate = obls / (median(untraced.durs) / 1e3)
	out.tracedRate = obls / (median(durs) / 1e3)
	return out, nil
}

type proveCounts struct {
	stats                             simplify.Stats
	calls, cacheHits, steps, rejected float64
}

// tracedOp proves the suite and the mutations serially from outside.
func (w *proveWorkload) tracedOp(tr *tracer) (suite, muts [][]verdict, c proveCounts, err error) {
	defer tr.endOp()
	op := tr.begin("op", -1)
	defer tr.end(op)
	s := tr.begin("qdl.load", op)
	reg, err := qdl.Load(w.suite)
	var mregs []*qdl.Registry
	for _, m := range w.mutations {
		if err != nil {
			break
		}
		var mreg *qdl.Registry
		mreg, err = qdl.Load(m.srcs)
		mregs = append(mregs, mreg)
	}
	tr.end(s)
	if err != nil {
		return nil, nil, c, err
	}
	prover := w.base.Fork(simplify.NewCache(0))
	ctx := context.Background()
	prove := func(d *qdl.Def, reg *qdl.Registry) ([]verdict, error) {
		s := tr.begin("soundness.obligations", op)
		obls, err := soundness.Obligations(d, reg)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		var vs []verdict
		for _, o := range obls {
			if o.Vacuous {
				vs = append(vs, verdict{valid: true, vacuous: true})
				continue
			}
			s := tr.begin("simplify.prove", op)
			outc := prover.ProveContext(ctx, o.Formula)
			tr.end(s)
			v := verdict{valid: outc.Result == simplify.Valid, transient: simplify.TransientReason(outc.Reason), crt: outc.Certificate}
			if v.valid {
				tr.spans[s].name = "simplify.prove_valid"
			} else {
				tr.spans[s].name = "simplify.prove_refuted"
			}
			c.stats.Add(outc.Stats)
			c.calls++
			if outc.CacheHit {
				c.cacheHits++
			}
			if outc.Certificate != nil {
				s := tr.begin("cert.verify", op)
				verr := cert.Verify(outc.Certificate)
				tr.end(s)
				c.steps += float64(len(outc.Certificate.Steps))
				if verr != nil {
					c.rejected++
				}
			}
			vs = append(vs, v)
		}
		return vs, nil
	}
	for _, d := range reg.Defs() {
		vs, err := prove(d, reg)
		if err != nil {
			return nil, nil, c, err
		}
		suite = append(suite, vs)
	}
	for i, m := range w.mutations {
		vs, err := prove(mregs[i].Lookup(m.qual), mregs[i])
		if err != nil {
			return nil, nil, c, err
		}
		muts = append(muts, vs)
	}
	return suite, muts, c, nil
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
