// Package scheduler is a work-stealing task pool for repo-scale checking.
// Each worker owns a double-ended queue: the worker pushes and pops work at
// the bottom (LIFO, so a file task's freshly spawned per-function units run
// hot in cache), while idle workers steal from the top (FIFO, so thieves
// take the oldest — typically largest — unit and leave the victim its
// locality). External callers submit to a shared injector queue that workers
// drain when their own deque is empty.
//
// The split between Submit (cross-worker, FIFO injector) and Spawn
// (current-worker, LIFO deque) is what keeps one huge file from starving
// the pool: a file task spawns one unit per function onto its own deque, and
// any idle worker steals those units from the top while the owner chews the
// bottom.
//
// Victim selection is a deterministic per-worker xorshift sequence seeded
// from the pool seed and the thief's index — no global randomness, so two
// pools with the same seed probe victims in the same order (the interleaving
// of steals still depends on OS scheduling; result determinism must come
// from the caller merging results by index, which the checker does).
//
// The pool is quiescence-counted: every Submit/Spawn increments a pending
// counter, every completed task decrements it, and Wait returns when it hits
// zero. Close stops the workers and joins them; a pool is single-use.
package scheduler

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ctx is the execution context handed to every task: it identifies the
// running worker and lets the task spawn subtasks onto that worker's deque.
type Ctx struct {
	pool   *Pool
	worker int
}

// Worker returns the index of the worker executing the task (0-based).
func (c *Ctx) Worker() int { return c.worker }

// Spawn pushes a subtask onto the executing worker's own deque (LIFO). It
// must only be called from inside a running task; spawned tasks are eligible
// for stealing immediately.
func (c *Ctx) Spawn(t Task) {
	c.pool.pending.Add(1)
	c.pool.spawned.Add(1)
	c.pool.workers[c.worker].deque.pushBottom(t)
	c.pool.wake()
}

// Task is one unit of work. The Ctx argument is valid only for the duration
// of the call.
type Task func(c *Ctx)

// Stats is a snapshot of the pool's telemetry counters.
type Stats struct {
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Submitted counts external Submit calls; Spawned counts in-task Spawn
	// calls; Executed is their sum once every task has run.
	Submitted uint64 `json:"submitted"`
	Spawned   uint64 `json:"spawned"`
	Executed  uint64 `json:"executed"`
	// Steals counts tasks taken from another worker's deque; InjectorGrabs
	// counts tasks taken from the shared injector queue.
	Steals        uint64 `json:"steals"`
	InjectorGrabs uint64 `json:"injector_grabs"`
	// PerWorker[i] is the number of tasks worker i executed — the
	// utilization profile (a flat profile means stealing kept every worker
	// busy; a spiked one means the workload didn't decompose).
	PerWorker []uint64 `json:"per_worker"`
	// Parks counts times a worker found no work anywhere and went to sleep.
	Parks uint64 `json:"parks"`
}

// deque is one worker's double-ended work queue. A mutex guards it: the
// owner's push/pop and thieves' steals contend only on this worker's lock,
// so the common case (owner working its own bottom) never touches a global
// lock. items[0] is the top (steal end); items[len-1] is the bottom.
type deque struct {
	mu    sync.Mutex
	items []Task
}

func (d *deque) pushBottom(t Task) {
	d.mu.Lock()
	d.items = append(d.items, t)
	d.mu.Unlock()
}

// popBottom removes the most recently pushed task (owner side).
func (d *deque) popBottom() (Task, bool) {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return nil, false
	}
	t := d.items[n-1]
	d.items[n-1] = nil
	d.items = d.items[:n-1]
	d.mu.Unlock()
	return t, true
}

// stealTop removes the oldest task (thief side).
func (d *deque) stealTop() (Task, bool) {
	d.mu.Lock()
	if len(d.items) == 0 {
		d.mu.Unlock()
		return nil, false
	}
	t := d.items[0]
	copy(d.items, d.items[1:])
	d.items[len(d.items)-1] = nil
	d.items = d.items[:len(d.items)-1]
	d.mu.Unlock()
	return t, true
}

// worker is one pool member: its deque, its deterministic victim-selection
// RNG state, and its executed counter.
type worker struct {
	deque    deque
	rng      uint64
	executed atomic.Uint64
}

// Pool is a work-stealing scheduler. Create with New, feed with Submit,
// block on Wait, and release with Close.
type Pool struct {
	workers []*worker

	injMu    sync.Mutex
	injector []Task

	// pending counts submitted-or-spawned tasks not yet finished; Wait
	// returns when it reaches zero.
	pending atomic.Int64

	// park is the sleep/wake rendezvous: workers that find no work anywhere
	// wait on cond; wake broadcasts on every push and every completion (the
	// completion broadcast also unblocks Wait).
	parkMu  sync.Mutex
	cond    *sync.Cond
	stopped bool

	wg sync.WaitGroup

	submitted     atomic.Uint64
	spawned       atomic.Uint64
	steals        atomic.Uint64
	injectorGrabs atomic.Uint64
	parks         atomic.Uint64
}

// New starts a pool with the given worker count (values < 1 mean
// runtime.GOMAXPROCS(0)) and victim-selection seed. The same seed gives
// every worker the same probe sequence across runs.
func New(workers int, seed uint64) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := newPool(workers, seed)
	for i := range p.workers {
		p.wg.Add(1)
		go p.run(i)
	}
	return p
}

// newPool builds the pool state without starting workers (tests probe the
// deterministic victim sequence on a cold pool).
func newPool(workers int, seed uint64) *Pool {
	p := &Pool{workers: make([]*worker, workers)}
	p.cond = sync.NewCond(&p.parkMu)
	for i := range p.workers {
		// splitmix64 of seed+index: distinct, deterministic, never zero.
		s := seed + uint64(i+1)*0x9e3779b97f4a7c15
		s ^= s >> 30
		s *= 0xbf58476d1ce4e5b9
		s ^= s >> 27
		s *= 0x94d049bb133111eb
		s ^= s >> 31
		if s == 0 {
			s = 1
		}
		p.workers[i] = &worker{rng: s}
	}
	return p
}

// Submit enqueues a task on the shared injector queue (FIFO). Safe from any
// goroutine. Submitting to a closed pool panics: the workers are gone, so
// the task would silently never run (the watch daemon reuses one pool across
// generations — Submit after Wait is fine, Submit after Close is a bug).
func (p *Pool) Submit(t Task) {
	p.parkMu.Lock()
	stopped := p.stopped
	p.parkMu.Unlock()
	if stopped {
		panic("scheduler: Submit on a closed pool")
	}
	p.pending.Add(1)
	p.submitted.Add(1)
	p.injMu.Lock()
	p.injector = append(p.injector, t)
	p.injMu.Unlock()
	p.wake()
}

func (p *Pool) wake() {
	p.parkMu.Lock()
	p.cond.Broadcast()
	p.parkMu.Unlock()
}

// popInjector takes the oldest externally submitted task.
func (p *Pool) popInjector() (Task, bool) {
	p.injMu.Lock()
	if len(p.injector) == 0 {
		p.injMu.Unlock()
		return nil, false
	}
	t := p.injector[0]
	copy(p.injector, p.injector[1:])
	p.injector[len(p.injector)-1] = nil
	p.injector = p.injector[:len(p.injector)-1]
	p.injMu.Unlock()
	return t, true
}

// nextVictim advances worker w's xorshift64 state and maps it onto a victim
// index other than w (for pools of one worker there is no victim).
func (p *Pool) nextVictim(w int) int {
	n := len(p.workers)
	if n < 2 {
		return -1
	}
	wk := p.workers[w]
	x := wk.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	wk.rng = x
	v := int(x % uint64(n-1))
	if v >= w {
		v++
	}
	return v
}

// findWork locates the next task for worker w: own deque bottom first, then
// the injector, then up to 2*(n-1) steal probes over the deterministic
// victim sequence.
func (p *Pool) findWork(w int) (Task, bool) {
	if t, ok := p.workers[w].deque.popBottom(); ok {
		return t, true
	}
	if t, ok := p.popInjector(); ok {
		p.injectorGrabs.Add(1)
		return t, true
	}
	probes := 2 * (len(p.workers) - 1)
	for i := 0; i < probes; i++ {
		v := p.nextVictim(w)
		if v < 0 {
			break
		}
		if t, ok := p.workers[v].deque.stealTop(); ok {
			p.steals.Add(1)
			return t, true
		}
	}
	return nil, false
}

// run is one worker's loop: execute until Close. A task panic propagates
// after the pending count is repaired, so a caller's recover (or test
// failure) sees a consistent pool rather than a hung Wait.
func (p *Pool) run(w int) {
	defer p.wg.Done()
	ctx := &Ctx{pool: p, worker: w}
	for {
		t, ok := p.findWork(w)
		if !ok {
			p.parkMu.Lock()
			// Re-check under the lock: a Submit/Spawn between findWork and
			// here would otherwise be missed forever.
			if p.stopped {
				p.parkMu.Unlock()
				return
			}
			if !p.anyWork() {
				p.parks.Add(1)
				p.cond.Wait()
			}
			p.parkMu.Unlock()
			continue
		}
		p.execute(ctx, t)
	}
}

// execute runs one task, guaranteeing the pending decrement (and the wake
// that unblocks Wait) even when the task panics.
func (p *Pool) execute(ctx *Ctx, t Task) {
	defer func() {
		p.workers[ctx.worker].executed.Add(1)
		p.pending.Add(-1)
		p.wake()
	}()
	t(ctx)
}

// anyWork reports whether any queue holds a task (racy but conservative:
// it is only consulted under parkMu after a failed findWork, and every push
// broadcasts, so a false negative is always followed by a wake).
func (p *Pool) anyWork() bool {
	p.injMu.Lock()
	n := len(p.injector)
	p.injMu.Unlock()
	if n > 0 {
		return true
	}
	for _, wk := range p.workers {
		wk.deque.mu.Lock()
		n := len(wk.deque.items)
		wk.deque.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// Wait blocks until every submitted and spawned task has finished. It does
// not close the pool; more work may be submitted after Wait returns.
func (p *Pool) Wait() {
	p.parkMu.Lock()
	for p.pending.Load() != 0 {
		p.cond.Wait()
	}
	p.parkMu.Unlock()
}

// Close stops the workers and joins them. Tasks still queued are dropped
// (callers that need them run call Wait first). Close is idempotent.
func (p *Pool) Close() {
	p.parkMu.Lock()
	if p.stopped {
		p.parkMu.Unlock()
		return
	}
	p.stopped = true
	p.cond.Broadcast()
	p.parkMu.Unlock()
	p.wg.Wait()
}

// Stats snapshots the telemetry counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Workers:       len(p.workers),
		Submitted:     p.submitted.Load(),
		Spawned:       p.spawned.Load(),
		Steals:        p.steals.Load(),
		InjectorGrabs: p.injectorGrabs.Load(),
		Parks:         p.parks.Load(),
		PerWorker:     make([]uint64, len(p.workers)),
	}
	for i, wk := range p.workers {
		n := wk.executed.Load()
		s.PerWorker[i] = n
		s.Executed += n
	}
	return s
}
