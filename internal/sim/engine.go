// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models a chip multiprocessor as a set of hardware threads, each
// executed by a Go goroutine that runs one at a time in virtual-time order.
// A thread runs uninterrupted between synchronization points (memory
// operations). At each such point it keeps running if it is still the
// earliest runnable thread; otherwise it hands control directly to the
// thread with the smallest virtual clock. Ties are broken by thread id, so a
// simulation is bit-deterministic for a given configuration and seed.
//
// Control passes from thread to thread by an unbuffered channel send, after
// which the sender only waits to be resumed. So exactly one goroutine
// touches simulated state at any instant and every handoff is a
// happens-before edge: simulated machine state, the engine's run queue
// included, needs no locking.
package sim

import "fmt"

// Time is a point in virtual time, measured in processor cycles.
type Time = uint64

// Ctx is the execution context of one simulated hardware thread. All methods
// must be called from the goroutine running the thread's body.
type Ctx struct {
	id     int
	name   string
	now    Time
	engine *Engine
	resume chan struct{}
	// state flags, owned by the engine/running thread (never concurrent)
	finished bool
	blocked  bool
	inHeap   bool
	// descheduleReq is set by another thread (e.g. an OS scheduler model) to
	// ask this thread to park at its next synchronization point.
	descheduleReq bool
	parkNotify    func(*Ctx)
}

// ID returns the thread's identifier (also its heap tie-breaker).
func (c *Ctx) ID() int { return c.id }

// Name returns the thread's diagnostic name.
func (c *Ctx) Name() string { return c.name }

// Now returns the thread's local virtual clock.
func (c *Ctx) Now() Time { return c.now }

// Done reports whether the thread can make no further progress on its own:
// it has finished, or it is blocked waiting for another thread. Observer
// threads (e.g. the observatory pump) use it to stop sampling once every
// worker is done, so a perpetual observer cannot keep the engine alive.
func (c *Ctx) Done() bool { return c.finished || c.blocked }

// Advance moves the thread's local clock forward by d cycles without
// yielding. Use it for computation that touches no shared simulated state.
func (c *Ctx) Advance(d Time) { c.now += d }

// Sync lets every thread that is earlier in virtual time run before this
// one continues. Call it immediately before touching shared simulated
// state (the memory system calls it on every operation). It returns at
// once when this thread still orders before every ready thread by
// (now, id): that is the thread the engine would resume next.
func (c *Ctx) Sync() {
	if c.descheduleReq {
		c.park()
	}
	e := c.engine
	if len(e.ready) == 0 || c.before(e.ready[0]) {
		return
	}
	e.push(c)
	c.switchTo(e.next())
}

// Block parks the thread indefinitely; another thread must call
// Engine.Unblock to make it runnable again. The thread's clock is advanced
// to the unblock time if that is later.
func (c *Ctx) Block() {
	c.blocked = true
	c.switchTo(c.engine.next())
}

// park honors a pending deschedule request: it notifies the requester and
// blocks until rescheduled.
func (c *Ctx) park() {
	c.descheduleReq = false
	notify := c.parkNotify
	c.parkNotify = nil
	if notify != nil {
		notify(c)
	}
	c.Block()
}

// switchTo hands control to next (to Run when next is nil) and waits until
// some thread hands it back. The caller must already be in the run queue
// or blocked.
func (c *Ctx) switchTo(next *Ctx) {
	c.engine.resume(next)
	<-c.resume
}

// before reports whether c orders before o by (now, id).
func (c *Ctx) before(o *Ctx) bool {
	return c.now < o.now || (c.now == o.now && c.id < o.id)
}

// Engine is a discrete-event scheduler over a set of simulated threads.
type Engine struct {
	threads []*Ctx
	ready   runQueue
	done    chan struct{} // signalled when the run queue empties
	running bool
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{done: make(chan struct{})}
}

// Spawn creates a simulated thread that will run body starting at virtual
// time start. The body does not begin executing until Run is called.
func (e *Engine) Spawn(name string, start Time, body func(*Ctx)) *Ctx {
	if e.running {
		panic("sim: Spawn while engine is running")
	}
	c := &Ctx{
		id:     len(e.threads),
		name:   name,
		now:    start,
		engine: e,
		resume: make(chan struct{}),
	}
	e.threads = append(e.threads, c)
	go func() {
		<-c.resume
		body(c)
		c.finished = true
		e.resume(e.next())
	}()
	e.push(c)
	return c
}

// Unblock makes a blocked thread runnable again no earlier than time at.
// It must be called from a running simulated thread or before Run.
func (e *Engine) Unblock(c *Ctx, at Time) {
	if !c.blocked {
		panic(fmt.Sprintf("sim: Unblock(%s): thread is not blocked", c.name))
	}
	c.blocked = false
	if c.now < at {
		c.now = at
	}
	e.push(c)
}

// RequestPark asks thread c to park at its next synchronization point.
// notify, if non-nil, runs in c's goroutine just before it blocks; use it to
// save state and to learn the park time. If c is the calling thread the park
// happens at its next Sync.
func (e *Engine) RequestPark(c *Ctx, notify func(*Ctx)) {
	if c.finished || c.blocked {
		return
	}
	c.descheduleReq = true
	c.parkNotify = notify
}

// Run executes threads in virtual-time order until every thread has finished
// or blocked. It returns the number of threads left blocked (0 means all ran
// to completion). Run only starts the earliest thread; from then on threads
// hand control to each other, and the last one to stop wakes Run.
func (e *Engine) Run() int {
	e.running = true
	defer func() { e.running = false }()
	if len(e.ready) > 0 {
		e.resume(e.next())
		<-e.done
	}
	blocked := 0
	for _, c := range e.threads {
		if c.blocked && !c.finished {
			blocked++
		}
	}
	return blocked
}

// MaxTime returns the largest local clock across all threads: the makespan
// of the simulation.
func (e *Engine) MaxTime() Time {
	var m Time
	for _, c := range e.threads {
		if c.now > m {
			m = c.now
		}
	}
	return m
}

// Threads returns the threads spawned so far, in id order.
func (e *Engine) Threads() []*Ctx { return e.threads }

func (e *Engine) push(c *Ctx) {
	if c.inHeap {
		panic(fmt.Sprintf("sim: thread %s pushed twice", c.name))
	}
	c.inHeap = true
	e.ready = append(e.ready, c)
	e.ready.up(len(e.ready) - 1)
}

// next removes and returns the earliest ready thread, or nil if none is
// ready.
func (e *Engine) next() *Ctx {
	h := e.ready
	n := len(h) - 1
	if n < 0 {
		return nil
	}
	c := h[0]
	h[0] = h[n]
	h[n] = nil
	e.ready = h[:n]
	e.ready.down(0)
	c.inHeap = false
	return c
}

// resume hands control to c, or back to Run when c is nil. The caller must
// not touch simulated state afterwards until control returns to it.
func (e *Engine) resume(c *Ctx) {
	if c == nil {
		e.done <- struct{}{}
		return
	}
	c.resume <- struct{}{}
}

// runQueue is a binary min-heap of ready threads ordered by (now, id).
// Keys are unique, so the pick order does not depend on the heap's layout.
type runQueue []*Ctx

func (h runQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h runQueue) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
