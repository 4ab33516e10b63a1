package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// serveWorkload is serve-mix: an in-process qualserve (server.New with the
// default config) on loopback, driven by two closed-loop clients that each
// wait for a reply before sending the next request. About 70% of requests
// are /check, 20% /check-batch of several files and 10% /prove. Files come
// from a fixed working set that fits the function cache, so resubmits hit;
// one /check in four carries fresh content (one function edited), which
// misses. Every request body is generated during set-up.
type serveWorkload struct {
	cfg   *config
	corp  *corpus
	check [][]byte // one /check body per working-set file
	// batches are pre-generated /check-batch bodies and their files.
	batches     []batchBody
	proveQuals  []string
	proveBodies [][]byte
	clients     [serveClients]*serveClient

	srv      *server.Server
	url      string
	serveErr chan error
	// lastDiags is the rendered diagnostics of the latest untraced /check
	// of each working-set file, which the traced run must reproduce.
	mu        sync.Mutex
	lastDiags map[string]string
}

const serveClients = 2

const (
	kindCheck = iota
	kindBatch
	kindProve
)

var kindNames = []string{"check", "batch", "prove"}
var kindPaths = []string{"/check", "/check-batch", "/prove"}

type batchBody struct {
	body  []byte
	files []int
}

// serveClient is one closed-loop client: its request sequence, its share
// of the fresh bodies and its HTTP client.
type serveClient struct {
	rng       *rand.Rand
	fresh     []freshBody
	nextFresh int
	wrapped   bool
	hc        *http.Client
}

type freshBody struct {
	body []byte
	file int
}

// request is one drawn request and what the oracle expects of it.
type request struct {
	kind  int
	body  []byte
	files []int  // working-set files checked, in order
	qual  string // /prove qualifier
	fresh bool
}

func newServeWorkload(cfg *config) *serveWorkload {
	return &serveWorkload{cfg: cfg, lastDiags: map[string]string{}}
}

func (w *serveWorkload) setup() error {
	sz := w.cfg.size
	w.corp = newCorpus(genTree(w.cfg.seed+1, sz.serveFiles, "ws"))
	for i, f := range w.corp.files {
		w.check = append(w.check, mustJSON(server.CheckRequest{Filename: f.rel, Source: w.corp.srcs[i]}))
	}
	rng := rand.New(rand.NewSource(w.cfg.seed * 17))
	for b := 0; b < 64; b++ {
		var req server.CheckBatchRequest
		bb := batchBody{}
		for _, i := range rng.Perm(len(w.corp.files))[:sz.serveBatch] {
			req.Files = append(req.Files, server.BatchInput{Filename: w.corp.files[i].rel, Source: w.corp.srcs[i]})
			bb.files = append(bb.files, i)
		}
		bb.body = mustJSON(req)
		w.batches = append(w.batches, bb)
	}
	w.proveQuals = []string{"pos", "neg", "nonzero", "nonnull", "untainted", "tainted", "unique", "unaliased"}
	for _, q := range w.proveQuals {
		w.proveBodies = append(w.proveBodies, mustJSON(server.ProveRequest{Qualifier: q}))
	}
	for c := range w.clients {
		cl := &serveClient{
			rng: rand.New(rand.NewSource(w.cfg.seed*101 + int64(c))),
			hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		}
		for j := 0; j < sz.serveFresh; j++ {
			i := cl.rng.Intn(len(w.corp.files))
			f := &w.corp.files[i]
			g := f.edited(cl.rng.Intn(len(f.funcs)), 1000+c*sz.serveFresh+j)
			src, _ := g.render()
			cl.fresh = append(cl.fresh, freshBody{body: mustJSON(server.CheckRequest{Filename: f.rel, Source: src}), file: i})
		}
		w.clients[c] = cl
	}

	w.srv = server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.serveErr = make(chan error, 1)
	go func() { w.serveErr <- w.srv.Serve(ln) }()

	// Warm the caches with the whole working set and every qualifier, then
	// run the warm-up op: one request of each kind.
	hc := w.clients[0].hc
	warm := []request{}
	for i := range w.corp.files {
		warm = append(warm, request{kind: kindCheck, body: w.check[i], files: []int{i}})
	}
	for i, q := range w.proveQuals {
		warm = append(warm, request{kind: kindProve, body: w.proveBodies[i], qual: q})
	}
	warm = append(warm, request{kind: kindBatch, body: w.batches[0].body, files: w.batches[0].files})
	for _, r := range warm {
		status, body, err := w.post(hc, &r)
		if err != nil {
			return err
		}
		if !w.verify(&r, status, body) {
			return fmt.Errorf("warm-up %s request failed its oracle (status %d)", kindNames[r.kind], status)
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.srv.Shutdown(ctx)
	<-w.serveErr
	for _, c := range w.clients {
		c.hc.CloseIdleConnections()
	}
	w.srv = nil
}

func (w *serveWorkload) facts(f map[string]any) {
	f["files"] = len(w.corp.files)
	f["functions"] = w.corp.funcs
	f["bytes"] = w.corp.bytes
	f["inputs_sha256"] = w.corp.digest()
	f["clients"] = serveClients
	wrapped := false
	used := 0
	for _, c := range w.clients {
		wrapped = wrapped || c.wrapped
		used += c.nextFresh
	}
	f["fresh_bodies_used"] = used
	f["fresh_bodies_wrapped"] = wrapped
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// next draws the client's next request.
func (w *serveWorkload) next(c *serveClient) request {
	r := c.rng.Intn(100)
	switch {
	case r < 70:
		if c.rng.Intn(4) == 0 {
			fb := c.fresh[c.nextFresh%len(c.fresh)]
			c.nextFresh++
			if c.nextFresh > len(c.fresh) {
				c.wrapped = true
			}
			return request{kind: kindCheck, body: fb.body, files: []int{fb.file}, fresh: true}
		}
		i := c.rng.Intn(len(w.corp.files))
		return request{kind: kindCheck, body: w.check[i], files: []int{i}}
	case r < 90:
		b := w.batches[c.rng.Intn(len(w.batches))]
		return request{kind: kindBatch, body: b.body, files: b.files}
	default:
		i := c.rng.Intn(len(w.proveQuals))
		return request{kind: kindProve, body: w.proveBodies[i], qual: w.proveQuals[i]}
	}
}

// post sends r over loopback and reads the whole reply.
func (w *serveWorkload) post(hc *http.Client, r *request) (int, []byte, error) {
	resp, err := hc.Post(w.url+kindPaths[r.kind], "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// direct runs r through the server's handler on a recorder, bypassing the
// network.
func (w *serveWorkload) direct(r *request) (int, []byte) {
	rec := httptest.NewRecorder()
	w.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, kindPaths[r.kind], bytes.NewReader(r.body)))
	return rec.Code, rec.Body.Bytes()
}

// verify is the oracle: status 200 and exactly the generator's diagnostics
// for every file, or a sound, non-degraded report for /prove.
func (w *serveWorkload) verify(r *request, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	switch r.kind {
	case kindCheck:
		var resp server.CheckResponse
		if json.Unmarshal(body, &resp) != nil || resp.Degraded {
			return false
		}
		i := r.files[0]
		rel := w.corp.files[i].rel
		if resp.Filename != rel || !apiDiagsMatch(rel, w.corp.want[i], resp.Diagnostics) {
			return false
		}
		if !r.fresh {
			w.mu.Lock()
			w.lastDiags[rel] = renderAPIDiags(resp.Diagnostics)
			w.mu.Unlock()
		}
		return true
	case kindBatch:
		var resp server.CheckBatchResponse
		if json.Unmarshal(body, &resp) != nil || resp.Degraded || resp.Failures != 0 || len(resp.Files) != len(r.files) {
			return false
		}
		for k, i := range r.files {
			fr := resp.Files[k]
			rel := w.corp.files[i].rel
			if fr.Filename != rel || fr.Error != "" || !apiDiagsMatch(rel, w.corp.want[i], fr.Diagnostics) {
				return false
			}
		}
		return true
	default:
		var resp server.ProveResponse
		if json.Unmarshal(body, &resp) != nil || resp.Degraded || !resp.AllSound || len(resp.Reports) != 1 {
			return false
		}
		rep := resp.Reports[0]
		if rep.Qualifier != r.qual || !rep.Sound || rep.Error != "" || len(rep.Obligations) == 0 {
			return false
		}
		for _, o := range rep.Obligations {
			if !o.Valid {
				return false
			}
		}
		return true
	}
}

func apiDiagsMatch(rel string, want []wantDiag, diags []server.CheckDiagnostic) bool {
	if len(diags) != len(want) {
		return false
	}
	for j, d := range diags {
		if d.File != rel || d.Line != want[j].line || d.Code != "qual" || !strings.Contains(d.Msg, "qualifier "+want[j].qual) {
			return false
		}
	}
	return true
}

func renderAPIDiags(diags []server.CheckDiagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Code, d.Msg)
	}
	return b.String()
}

// sample is one completed request.
type sample struct {
	end    time.Time
	kind   int
	direct bool
	ms     float64
	bytes  int
	ok     bool
}

// drive runs the closed-loop clients until d has elapsed. With traced set,
// every other request of a client goes straight to the handler instead of
// over loopback, and client 0 records spans into tr.
func (w *serveWorkload) drive(d time.Duration, traced bool, tr *tracer) ([]sample, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	results := make([][]sample, serveClients)
	errs := make([]error, serveClients)
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := w.clients[c]
			for n := 0; time.Now().Before(deadline); n++ {
				r := w.next(cl)
				useDirect := traced && n%2 == 0
				name := "net." + kindNames[r.kind]
				if useDirect {
					name = "server." + kindNames[r.kind]
				}
				sp := -1
				if tr != nil && c == 0 {
					sp = tr.begin(name, -1)
				}
				t0 := time.Now()
				var status int
				var body []byte
				var err error
				if useDirect {
					status, body = w.direct(&r)
				} else {
					status, body, err = w.post(cl.hc, &r)
				}
				dt := time.Since(t0)
				if sp >= 0 {
					tr.end(sp)
					tr.endOp()
				}
				if err != nil {
					errs[c] = err
					return
				}
				ok := w.verify(&r, status, body)
				results[c] = append(results[c], sample{end: t0.Add(dt), kind: r.kind, direct: useDirect, ms: ms(dt), bytes: len(body), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, r := range results {
		all = append(all, r...)
	}
	return all, wall, errors.Join(errs...)
}

func (w *serveWorkload) measure(d time.Duration) (*opStats, error) {
	rt0 := readRuntime()
	begin := time.Now()
	samples, _, err := w.drive(d, false, nil)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	sort.Slice(samples, func(i, j int) bool { return samples[i].end.Before(samples[j].end) })
	st := &opStats{begin: begin, allocBytes: rt1.allocBytes - rt0.allocBytes, concurrent: true}
	for _, s := range samples {
		st.addAt(s.end, time.Duration(s.ms*float64(time.Millisecond)), 1, s.ok)
	}
	return st, nil
}

func (w *serveWorkload) metricsSnapshot() (server.MetricsResponse, error) {
	var m server.MetricsResponse
	resp, err := w.clients[0].hc.Get(w.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// trace runs the untraced mix for the cache, queue and runtime figures, then
// the traced mix, in which each client alternates a direct handler call on
// a recorder with a loopback round trip.
func (w *serveWorkload) trace(d time.Duration, layers map[string]float64) (*traceResult, error) {
	m0, err := w.metricsSnapshot()
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	untraced, uwall, err := w.drive(d/2, false, nil)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	m1, err := w.metricsSnapshot()
	if err != nil {
		return nil, err
	}
	want := map[string]string{}
	w.mu.Lock()
	for k, v := range w.lastDiags {
		want[k] = v
	}
	w.lastDiags = map[string]string{}
	w.mu.Unlock()

	n := float64(len(untraced))
	layers["runtime.gc_cycles_per_op"] = float64(rt1.gcCycles-rt0.gcCycles) / n
	layers["runtime.gc_cpu_share"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	hits := float64(m1.FuncCache.Hits - m0.FuncCache.Hits)
	misses := float64(m1.FuncCache.Misses - m0.FuncCache.Misses)
	layers["server.funccache_hit_ratio"] = ratio(hits, hits+misses)
	layers["server.coalesced"] = float64(m1.FuncCache.Coalesced - m0.FuncCache.Coalesced)

	tr := newTracer(200)
	traced, twall, err := w.drive(d/2, true, tr)
	if err != nil {
		return nil, err
	}
	m2, err := w.metricsSnapshot()
	if err != nil {
		return nil, err
	}
	layers["server.shed"] = float64(m2.ShedTotal)

	out := &traceResult{sameAsUntraced: true, tracer: tr}
	byKind := map[string][]float64{}
	var bytesSum float64
	for _, s := range append(untraced, traced...) {
		out.attempted++
		if !s.ok {
			out.failed++
		}
		bytesSum += float64(s.bytes)
	}
	for _, s := range traced {
		mode := "net."
		if s.direct {
			mode = "server."
		}
		byKind[mode+kindNames[s.kind]] = append(byKind[mode+kindNames[s.kind]], s.ms)
	}
	w.mu.Lock()
	for k, v := range w.lastDiags {
		if u, ok := want[k]; ok && u != v {
			out.sameAsUntraced = false
		}
	}
	w.mu.Unlock()
	layers["server.check_ms_p50"] = median(byKind["server.check"])
	layers["server.batch_ms_p50"] = median(byKind["server.batch"])
	layers["server.prove_ms_p50"] = median(byKind["server.prove"])
	layers["net.overhead_ms_p50"] = median(byKind["net.check"]) - median(byKind["server.check"])
	layers["server.response_kb"] = bytesSum / float64(out.attempted) / 1024
	out.untracedRate = n / uwall.Seconds()
	out.tracedRate = float64(len(traced)) / twall.Seconds()
	return out, nil
}
