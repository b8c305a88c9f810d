package main

import (
	"runtime"
	"time"

	"flextm/internal/memory"
	"flextm/internal/tmapi"
	"flextm/internal/workloads"
)

// probe collects what the wrapping factory sees of one harness.Run. The
// simulator runs one simulated thread at a time and hands control over
// channels, so the counters need no further synchronization.
type probe struct {
	// setup spans Factory.New plus Workload.Setup; verify spans
	// Workload.Verify.
	setupStart, setupEnd   time.Time
	verifyStart, verifyEnd time.Time
	// heap is the live heap at the end of the simulation, before
	// harness.Run releases the machine, taken by a forced GC just before
	// Verify in untraced runs; heapGC is the time that GC took, which is
	// not the cell's.
	heap   uint64
	heapGC time.Duration
	// counting wraps every tmapi.Thread and tmapi.Txn the workload is
	// handed; off in untraced runs, where Op calls go straight through.
	counting bool
	ops      uint64 // Workload.Op calls
	atomics  uint64 // Thread.Atomic calls
	attempts uint64 // attempt-body calls: one per Atomic plus one per retry
	accesses uint64 // Txn.Load and Txn.Store calls
}

// wrapFactory returns a factory whose workloads report to p.
func wrapFactory(f workloads.Factory, p *probe) workloads.Factory {
	return workloads.Factory{Name: f.Name, New: func() workloads.Workload {
		p.setupStart = time.Now()
		return &probedWorkload{inner: f.New(), p: p}
	}}
}

type probedWorkload struct {
	inner   workloads.Workload
	p       *probe
	threads []*countingThread // indexed by core; reused across ops
}

func (w *probedWorkload) Name() string { return w.inner.Name() }

func (w *probedWorkload) Setup(env *workloads.Env) {
	w.inner.Setup(env)
	w.p.setupEnd = time.Now()
}

func (w *probedWorkload) Op(th tmapi.Thread) {
	if !w.p.counting {
		w.inner.Op(th)
		return
	}
	w.p.ops++
	c := th.Core()
	for len(w.threads) <= c {
		w.threads = append(w.threads, nil)
	}
	if w.threads[c] == nil || w.threads[c].Thread != th {
		w.threads[c] = &countingThread{Thread: th, p: w.p}
	}
	w.inner.Op(w.threads[c])
}

func (w *probedWorkload) Verify(env *workloads.Env) error {
	if !w.p.counting {
		start := time.Now()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.p.heap = ms.HeapAlloc
		w.p.heapGC = time.Since(start)
	}
	w.p.verifyStart = time.Now()
	err := w.inner.Verify(env)
	w.p.verifyEnd = time.Now()
	return err
}

// countingThread counts Atomic calls and their attempt bodies. Aborts
// unwind through the body as panics, which pass through untouched.
type countingThread struct {
	tmapi.Thread
	p *probe
}

func (t *countingThread) Atomic(body func(tmapi.Txn)) {
	t.p.atomics++
	t.Thread.Atomic(func(tx tmapi.Txn) {
		t.p.attempts++
		body(countingTxn{tx, t.p})
	})
}

type countingTxn struct {
	tmapi.Txn
	p *probe
}

func (t countingTxn) Load(a memory.Addr) uint64 {
	t.p.accesses++
	return t.Txn.Load(a)
}

func (t countingTxn) Store(a memory.Addr, v uint64) {
	t.p.accesses++
	t.Txn.Store(a, v)
}
