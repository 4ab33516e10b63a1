package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// rtStats is a snapshot of the Go runtime counters the benchmark reports.
type rtStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	liveBytes  uint64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		liveBytes:  s[4].Value.Uint64(),
	}
}

// allocReader reads the cumulative heap allocation counter without
// allocating. It is approximate at the scale of one span per size class,
// which is negligible against a layer's per-op total.
type allocReader struct{ s []metrics.Sample }

func newAllocReader() *allocReader {
	return &allocReader{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (a *allocReader) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// opStats collects the timed ops of one measured phase.
type opStats struct {
	begin      time.Time   // start of the phase
	durs       []float64   // ms per op
	ends       []time.Time // when each op completed
	items      int
	attempted  int
	failed     int
	allocBytes uint64
	// concurrent is set by workloads whose ops overlap: their throughput is
	// completions over wall time rather than items over the median op.
	concurrent bool
}

// add records one op that took d and completed now.
func (o *opStats) add(d time.Duration, items int, ok bool) {
	o.addAt(time.Now(), d, items, ok)
}

func (o *opStats) addAt(end time.Time, d time.Duration, items int, ok bool) {
	if o.begin.IsZero() {
		o.begin = end.Add(-d)
	}
	o.durs = append(o.durs, ms(d))
	o.ends = append(o.ends, end)
	o.attempted++
	o.items += items
	if !ok {
		o.failed++
	}
}

// Windows of a measured phase: the end-to-end timings come from the
// least-disturbed of measureWindows equal slices of the phase.
const (
	measureWindows = 5
	minWindowOps   = 5
)

// bestWindow splits the phase into measureWindows equal slices by op
// completion time and returns the lowest median op time and the highest
// throughput (items per second) among the slices holding at least
// minWindowOps ops; with no such slice it uses the whole phase.
//
// The machine this benchmark is sized on is a shared virtual machine whose
// speed drops by up to half for seconds to minutes at a time, whatever runs
// in it. A slow spell that covers part of a run moves the whole run's median
// but not its best slice; a change to the program moves every slice.
func (o *opStats) bestWindow() (p50, rate float64) {
	if len(o.durs) == 0 {
		return 0, 0
	}
	perOp := float64(o.items) / float64(o.attempted)
	rateOf := func(durs []float64, secs float64) float64 {
		if o.concurrent {
			return float64(len(durs)) * perOp / secs
		}
		return perOp / (median(durs) / 1e3)
	}
	span := o.ends[len(o.ends)-1].Sub(o.begin)
	width := span / measureWindows
	windows := make([][]float64, measureWindows)
	for i, end := range o.ends {
		k := measureWindows - 1
		if width > 0 {
			k = min(int(end.Sub(o.begin)/width), measureWindows-1)
		}
		windows[k] = append(windows[k], o.durs[i])
	}
	p50 = math.Inf(1)
	for _, w := range windows {
		if len(w) >= minWindowOps {
			p50 = math.Min(p50, median(w))
			rate = math.Max(rate, rateOf(w, width.Seconds()))
		}
	}
	if math.IsInf(p50, 1) {
		return median(o.durs), rateOf(o.durs, span.Seconds())
	}
	return p50, rate
}

// span is one traced call: a layer boundary timed from outside the program.
type span struct {
	name   string
	op     int
	parent int // index in tracer.spans, -1 for a root
	start  time.Duration
	end    time.Duration
	alloc  uint64
}

// layerTotals accumulates self time and self allocation per span name.
type layerTotals struct {
	selfNs    map[string]float64
	selfAlloc map[string]float64
}

// tracer keeps spans in memory. Spans of every op are folded into per-layer
// totals when the op ends; the spans of the first keepOps ops are retained
// and written out when the run ends.
type tracer struct {
	t0      time.Time
	allocs  *allocReader
	spans   []span
	allocAt []uint64 // allocation counter at each open span's start
	kept    []span
	keepOps int
	ops     int
	totals  layerTotals
}

func newTracer(keepOps int) *tracer {
	return &tracer{
		t0:      time.Now(),
		allocs:  newAllocReader(),
		keepOps: keepOps,
		totals: layerTotals{
			selfNs:    map[string]float64{},
			selfAlloc: map[string]float64{},
		},
	}
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, op: t.ops, parent: parent})
	t.allocAt = append(t.allocAt, t.allocs.read())
	i := len(t.spans) - 1
	t.spans[i].start = time.Since(t.t0)
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	t.spans[i].end = time.Since(t.t0)
	t.spans[i].alloc = t.allocs.read() - t.allocAt[i]
}

// endOp folds the current op's spans into the totals: a span's self time
// (and self allocation) is its own minus that of its direct children.
func (t *tracer) endOp() {
	self := make([]float64, len(t.spans))
	selfAlloc := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += float64(s.end - s.start)
		selfAlloc[i] += float64(s.alloc)
		if s.parent >= 0 {
			self[s.parent] -= float64(s.end - s.start)
			selfAlloc[s.parent] -= float64(s.alloc)
		}
	}
	for i, s := range t.spans {
		t.totals.selfNs[s.name] += self[i]
		t.totals.selfAlloc[s.name] += selfAlloc[i]
	}
	if t.ops < t.keepOps {
		base := len(t.kept)
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			t.kept = append(t.kept, s)
		}
	}
	t.spans = t.spans[:0]
	t.allocAt = t.allocAt[:0]
	t.ops++
}

// perOpMs is the self time of the named spans per op, in milliseconds.
func (t *tracer) perOpMs(names ...string) float64 {
	if t.ops == 0 {
		return 0
	}
	var ns float64
	for _, n := range names {
		ns += t.totals.selfNs[n]
	}
	return ns / 1e6 / float64(t.ops)
}

// perOpMiB is the self allocation of the named spans per op, in MiB.
func (t *tracer) perOpMiB(names ...string) float64 {
	if t.ops == 0 {
		return 0
	}
	var b float64
	for _, n := range names {
		b += t.totals.selfAlloc[n]
	}
	return b / mib / float64(t.ops)
}

// write stores the retained spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.kept {
		rec := struct {
			ID      int     `json:"id"`
			Name    string  `json:"name"`
			Op      int     `json:"op"`
			Parent  int     `json:"parent"`
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
			AllocB  uint64  `json:"alloc_bytes"`
		}{i, s.name, s.op, s.parent, float64(s.start) / 1e3, float64(s.end) / 1e3, s.alloc}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
