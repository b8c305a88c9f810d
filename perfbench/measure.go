package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"flextm/internal/harness"
	"flextm/internal/observatory"
	"flextm/internal/sim"
	"flextm/internal/tmesi"
)

// sample is one harness.Run of one cell.
type sample struct {
	wall    time.Duration // the harness.Run call, less the heap-measuring GC
	setup   time.Duration // Factory.New + Workload.Setup inside it
	verify  time.Duration // Workload.Verify inside it
	mallocs uint64        // heap allocations during the call
	bytes   uint64        // heap bytes allocated during the call
	heap    uint64        // live heap at the end of the simulation
	calib   time.Duration // calibration kernel time around the run
	digest  string
	res     outcome
	counts  probe  // wrapper counts (traced runs only)
	frames  uint64 // observatory frames published
	records uint64 // flight records written
}

// outcome is the simulated part of a harness.Result: everything a
// host-side optimization must leave bit-identical.
type outcome struct {
	Commits         uint64
	Aborts          uint64
	Cycles          sim.Time
	Throughput      float64
	MedianConflicts int
	MaxConflicts    int
	Escalations     uint64
	Machine         tmesi.Stats
}

func (o outcome) memops() uint64 {
	m := o.Machine
	return m.Loads + m.Stores + m.TLoads + m.TStores
}

// digest is a short hash of the outcome's canonical JSON encoding.
func (o outcome) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // a struct of numbers always encodes
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// runCell runs one cell through harness.Run and measures it from outside.
// A non-nil span log turns on the wrapper's counts and records the run's
// cell, setup and verify spans.
func runCell(c cell, warmup int, spans *spanLog) (sample, error) {
	p := &probe{counting: spans != nil}
	rc := c.runConfig(wrapFactory(c.factory, p), warmup)
	var bus *observatory.Bus
	if c.observe {
		bus = observatory.NewBus()
		rc.Observe = observatory.NewPump(observatory.Config{Bus: bus})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := harness.Run(rc)
	end := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w", c.key, err)
	}
	if spans != nil {
		id := spans.add(c.key, "cell", -1, start, end)
		spans.add(c.key, "setup", id, p.setupStart, p.setupEnd)
		spans.add(c.key, "verify", id, p.verifyStart, p.verifyEnd)
	}
	s := sample{
		wall:    end.Sub(start) - p.heapGC,
		setup:   p.setupEnd.Sub(p.setupStart),
		verify:  p.verifyEnd.Sub(p.verifyStart),
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		heap:    p.heap,
		counts:  *p,
		res: outcome{
			Commits: res.Commits, Aborts: res.Aborts, Cycles: res.Cycles,
			Throughput: res.Throughput, MedianConflicts: res.MedianConflicts,
			MaxConflicts: res.MaxConflicts, Escalations: res.Escalations,
			Machine: res.Machine,
		},
	}
	s.digest = s.res.digest()
	if bus != nil {
		s.frames = bus.Published()
	}
	if res.Flight != nil {
		s.records = res.Flight.Written()
	}
	return s, nil
}

// checker decides whether a cell's simulated outcome is correct.
type checker func(c cell, s sample) error

// pass holds every sample of every cell of one measuring loop.
type pass struct {
	cells     []cell
	samples   [][]sample
	attempted int
	failed    int
	errs      []error
}

// measure cycles through the cells until budget has elapsed and every
// cell has run at least once. The loop is closed: one cell runs at a time.
// Untraced cell runs are bracketed by the calibration kernel; traced ones
// are not, so the kernel stays out of the CPU profile.
// A cell fails when harness.Run errors (blocked threads, a Verify error)
// or when check rejects its outcome.
func measure(cells []cell, warmup int, budget time.Duration, spans *spanLog, check checker) *pass {
	p := &pass{cells: cells, samples: make([][]sample, len(cells))}
	start := time.Now()
	for round := 0; ; round++ {
		for i, c := range cells {
			if round > 0 && time.Since(start) >= budget {
				return p
			}
			p.attempted++
			var before time.Duration
			if spans == nil {
				before = calibrate()
			}
			s, err := runCell(c, warmup, spans)
			if spans == nil {
				s.calib = (before + calibrate()) / 2
			}
			if err == nil {
				err = check(c, s)
			}
			if err == nil && len(p.samples[i]) > 0 && p.samples[i][0].digest != s.digest {
				err = fmt.Errorf("%s: outcome differs between repetitions", c.key)
			}
			if err != nil {
				p.failed++
				p.errs = append(p.errs, err)
				continue
			}
			p.samples[i] = append(p.samples[i], s)
		}
	}
}

// cellMedian is the median over a cell's samples of f.
func cellMedian(ss []sample, f func(sample) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	return median(v)
}

// sumMedians adds up the per-cell medians of f over the cells keep selects.
func (p *pass) sumMedians(f func(sample) float64, keep func(cell) bool) float64 {
	total := 0.0
	for i, c := range p.cells {
		if keep == nil || keep(c) {
			total += cellMedian(p.samples[i], f)
		}
	}
	return total
}

// first sums f over the first sample of every cell: one pass's worth of a
// quantity that repeats exactly, such as a simulated count.
func (p *pass) first(f func(sample) float64) float64 {
	total := 0.0
	for _, ss := range p.samples {
		if len(ss) > 0 {
			total += f(ss[0])
		}
	}
	return total
}

// medianOf is the median of f over every sample.
func (p *pass) medianOf(f func(sample) float64) float64 {
	var v []float64
	for _, ss := range p.samples {
		for _, s := range ss {
			v = append(v, f(s))
		}
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

// span is one timed call at a layer boundary. Parent is the index of the
// enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

func (l *spanLog) add(cell, name string, parent int, start, end time.Time) int {
	l.spans = append(l.spans, span{Name: name, Cell: cell, Parent: parent,
		Start: start.Sub(l.origin).Nanoseconds(), Dur: end.Sub(start).Nanoseconds()})
	return len(l.spans) - 1
}
