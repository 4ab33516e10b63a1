package scheduler

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil/leak"
)

// TestAllTasksRun checks quiescence counting: every submitted and spawned
// task executes exactly once before Wait returns.
func TestAllTasksRun(t *testing.T) {
	leak.Check(t)
	for _, workers := range []int{1, 2, 8} {
		p := New(workers, 1)
		var ran atomic.Int64
		for i := 0; i < 100; i++ {
			p.Submit(func(c *Ctx) {
				ran.Add(1)
				for j := 0; j < 5; j++ {
					c.Spawn(func(*Ctx) { ran.Add(1) })
				}
			})
		}
		p.Wait()
		if got := ran.Load(); got != 600 {
			t.Errorf("workers=%d: %d tasks ran, want 600", workers, got)
		}
		st := p.Stats()
		if st.Executed != 600 || st.Submitted != 100 || st.Spawned != 500 {
			t.Errorf("workers=%d: stats %+v", workers, st)
		}
		var per uint64
		for _, n := range st.PerWorker {
			per += n
		}
		if per != st.Executed {
			t.Errorf("workers=%d: per-worker sum %d != executed %d", workers, per, st.Executed)
		}
		p.Close()
	}
}

// TestDefaultWorkersIsGOMAXPROCS: a worker count below 1 means one worker
// per GOMAXPROCS, the "all cores" default that -j 0 documents.
func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	leak.Check(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, workers := range []int{0, -1} {
		p := New(workers, 1)
		got := p.Stats().Workers
		p.Close()
		if got != 3 {
			t.Errorf("New(%d) with GOMAXPROCS=3: %d workers, want 3", workers, got)
		}
	}
}

// TestSpawnLIFOStealFIFO checks the deque discipline with one worker: the
// owner pops its own spawns newest-first, while a steal takes the oldest.
func TestSpawnLIFOStealFIFO(t *testing.T) {
	leak.Check(t)
	p := New(1, 1)
	var order []int
	var mu sync.Mutex
	p.Submit(func(c *Ctx) {
		for i := 0; i < 4; i++ {
			i := i
			c.Spawn(func(*Ctx) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
	})
	p.Wait()
	p.Close()
	want := []int{3, 2, 1, 0}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("single-worker spawn order %v, want %v (LIFO)", order, want)
		}
	}

	// Steal side: load a deque directly and take from the top.
	var d deque
	for i := 0; i < 3; i++ {
		i := i
		d.pushBottom(func(*Ctx) { _ = i })
	}
	d.mu.Lock()
	n := len(d.items)
	d.mu.Unlock()
	if n != 3 {
		t.Fatalf("deque length %d, want 3", n)
	}
	if _, ok := d.stealTop(); !ok {
		t.Fatal("stealTop failed on non-empty deque")
	}
	if _, ok := d.popBottom(); !ok {
		t.Fatal("popBottom failed on non-empty deque")
	}
}

// TestVictimSequenceDeterministic checks that victim selection is a pure
// function of (seed, worker): two pools with the same seed probe victims in
// the same order, and a different seed gives a different order.
func TestVictimSequenceDeterministic(t *testing.T) {
	leak.Check(t)
	seq := func(seed uint64) []int {
		p := newPool(8, seed) // cold pool: no workers racing the rng probe
		var out []int
		for i := 0; i < 64; i++ {
			out = append(out, p.nextVictim(3))
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at probe %d: %v vs %v", i, a[:i+1], b[:i+1])
		}
		if a[i] == 3 {
			t.Fatalf("worker picked itself as victim at probe %d", i)
		}
		if a[i] < 0 || a[i] >= 8 {
			t.Fatalf("victim %d out of range at probe %d", a[i], i)
		}
	}
	c := seq(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical victim sequences")
	}
}

// TestStealsHappen forces the steal path: one worker spawns many units while
// holding its own deque's bottom busy; with several workers the spawned units
// must be stolen off the top.
func TestStealsHappen(t *testing.T) {
	leak.Check(t)
	p := New(4, 7)
	defer p.Close()
	const units = 400
	var ran atomic.Int64
	release := make(chan struct{})
	p.Submit(func(c *Ctx) {
		for i := 0; i < units; i++ {
			c.Spawn(func(*Ctx) {
				ran.Add(1)
				// Busy the executing worker a little so thieves get a look in.
				s := 0
				for j := 0; j < 2000; j++ {
					s += j
				}
				_ = s
			})
		}
		<-release // hold the spawning worker so it cannot drain its own deque
	})
	// Let the other workers drain everything, then release the spawner.
	for ran.Load() < units {
		runtime.Gosched()
	}
	close(release)
	p.Wait()
	if got := ran.Load(); got != units {
		t.Fatalf("%d units ran, want %d", got, units)
	}
	if st := p.Stats(); st.Steals == 0 {
		t.Errorf("no steals recorded; stats %+v", st)
	}
}

// TestCloseJoinsWorkers is the shutdown goroutine-leak regression: Close must
// return only after every worker goroutine has exited (leak.Check fails the
// test otherwise), including when called with tasks still queued.
func TestCloseJoinsWorkers(t *testing.T) {
	leak.Check(t)
	p := New(8, 3)
	for i := 0; i < 16; i++ {
		p.Submit(func(*Ctx) {})
	}
	p.Wait()
	p.Close()
	p.Close() // idempotent

	// Close with work still queued (never waited for): workers must still
	// exit; the dropped tasks are the caller's stated contract.
	q := New(4, 3)
	blocked := make(chan struct{})
	q.Submit(func(*Ctx) { <-blocked })
	close(blocked)
	q.Close()
}

// TestPanicInTask checks that a panicking task does not hang Wait or
// corrupt the pending count — the panic propagates on the worker goroutine
// after bookkeeping is repaired, so we contain it inside the task here and
// assert the pool stays serviceable.
func TestPanicInTask(t *testing.T) {
	leak.Check(t)
	p := New(2, 9)
	defer p.Close()
	var ran atomic.Int64
	p.Submit(func(*Ctx) {
		defer func() { recover() }()
		ran.Add(1)
		panic("contained")
	})
	p.Submit(func(*Ctx) { ran.Add(1) })
	p.Wait()
	if ran.Load() != 2 {
		t.Fatalf("pool unserviceable after contained panic: %d tasks ran", ran.Load())
	}
}

// TestPoolReuseAcrossGenerations is the watch daemon's pool contract: a
// Submit/Wait cycle can repeat on one pool, counters accumulate, and no
// worker needs restarting between cycles.
func TestPoolReuseAcrossGenerations(t *testing.T) {
	p := New(4, 1)
	defer p.Close()
	var ran atomic.Uint64
	for gen := 1; gen <= 5; gen++ {
		for i := 0; i < 16; i++ {
			p.Submit(func(*Ctx) { ran.Add(1) })
		}
		p.Wait()
		if got, want := ran.Load(), uint64(gen*16); got != want {
			t.Fatalf("generation %d: %d tasks ran, want %d", gen, got, want)
		}
	}
	if st := p.Stats(); st.Submitted != 80 || st.Executed != 80 {
		t.Errorf("stats after 5 generations: %+v, want 80 submitted/executed", st)
	}
}

// TestSubmitAfterClosePanics enforces the documented single-use contract:
// a closed pool has no workers, so a silent enqueue would hang Wait forever.
func TestSubmitAfterClosePanics(t *testing.T) {
	p := New(2, 1)
	p.Submit(func(*Ctx) {})
	p.Wait()
	p.Close()
	defer func() {
		if recover() == nil {
			t.Error("Submit on a closed pool did not panic")
		}
	}()
	p.Submit(func(*Ctx) {})
}
