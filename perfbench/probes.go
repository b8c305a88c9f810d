package main

import (
	"fmt"
	"time"

	"flextm/internal/cache"
	"flextm/internal/memory"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/tmesi"
)

// Probes are isolated calls into one layer's public functions. Each
// reports host ns per operation as the median of probeBatches batches of
// a fixed operation count, so its work does not depend on host speed.
const probeBatches = 5

// probeResult is one unit cost.
type probeResult struct {
	name string
	ns   float64
}

// runProbes measures every unit cost, in a fixed order.
func runProbes() ([]probeResult, error) {
	var out []probeResult
	add := func(name string, batch func() (float64, error)) error {
		v := make([]float64, 0, probeBatches)
		for i := 0; i < probeBatches; i++ {
			ns, err := batch()
			if err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			v = append(v, ns)
		}
		out = append(out, probeResult{name, median(v)})
		return nil
	}
	probes := []struct {
		name  string
		batch func() (float64, error)
	}{
		{"sim.sync_ns.t1", func() (float64, error) { return syncRoundTrip(1, 20000) }},
		{"sim.sync_ns.t16", func() (float64, error) { return syncRoundTrip(16, 1250) }},
		{"tmesi.tload_hit_ns", func() (float64, error) { return tloadHit(20000) }},
		{"tmesi.miss_fwd_ns", func() (float64, error) { return missForward(5000) }},
		{"tmesi.cascommit_ns.k1", func() (float64, error) { return casCommit(1, 1000) }},
		{"tmesi.cascommit_ns.k64", func() (float64, error) { return casCommit(64, 200) }},
		{"cache.lookup_ns", func() (float64, error) { return cacheLookup(200000) }},
		{"cache.flash_ns", func() (float64, error) { return cacheFlash(200) }},
		{"signature.insert_ns", func() (float64, error) { return sigInsert(200000) }},
		{"signature.member_ns", func() (float64, error) { return sigMember(200000) }},
	}
	for _, p := range probes {
		if err := add(p.name, p.batch); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runOn runs body as the only simulated thread of a fresh engine.
func runOn(body func(ctx *sim.Ctx)) error {
	e := sim.NewEngine()
	e.Spawn("probe", 0, body)
	if blocked := e.Run(); blocked != 0 {
		return fmt.Errorf("%d threads blocked", blocked)
	}
	return nil
}

// syncRoundTrip is one Advance+Sync (thread → engine → thread) with the
// given number of runnable threads in the engine's ready heap.
func syncRoundTrip(threads, n int) (float64, error) {
	e := sim.NewEngine()
	for i := 0; i < threads; i++ {
		e.Spawn("sync", 0, func(ctx *sim.Ctx) {
			for j := 0; j < n; j++ {
				ctx.Advance(1)
				ctx.Sync()
			}
		})
	}
	start := time.Now()
	if blocked := e.Run(); blocked != 0 {
		return 0, fmt.Errorf("%d threads blocked", blocked)
	}
	return perOp(time.Since(start), threads*n), nil
}

// tloadHit is a transactional load that hits in the L1 (it still begins
// with Ctx.Sync, like every tmesi operation).
func tloadHit(n int) (float64, error) {
	s := tmesi.New(tmesi.DefaultConfig())
	var d time.Duration
	err := runOn(func(ctx *sim.Ctx) {
		s.BeginTxn(0)
		s.TLoad(ctx, 0, 100)
		start := time.Now()
		for i := 0; i < n; i++ {
			s.TLoad(ctx, 0, 100)
		}
		d = time.Since(start)
	})
	return perOp(d, n), err
}

// missForward is a load that misses in core 1's L1 and is forwarded by the
// directory to core 0, which holds the line Modified: core 0's store before
// each load takes the line back.
func missForward(n int) (float64, error) {
	s := tmesi.New(tmesi.DefaultConfig())
	const a = memory.Addr(4096)
	var d time.Duration
	err := runOn(func(ctx *sim.Ctx) {
		for i := 0; i < n; i++ {
			s.Store(ctx, 0, a, uint64(i))
			start := time.Now()
			s.Load(ctx, 1, a)
			d += time.Since(start)
		}
	})
	if err == nil && s.Stats().Probes < uint64(n) {
		err = fmt.Errorf("%d directory probes for %d forwarded loads", s.Stats().Probes, n)
	}
	return perOp(d, n), err
}

// casCommit is a successful CAS-Commit of a transaction holding k TMI
// lines; it flash-commits the whole L1.
func casCommit(k, n int) (float64, error) {
	s := tmesi.New(tmesi.DefaultConfig())
	const tsw = memory.Addr(8)
	var d time.Duration
	var bad int
	err := runOn(func(ctx *sim.Ctx) {
		for i := 0; i < n; i++ {
			s.Store(ctx, 0, tsw, 1)
			s.BeginTxn(0)
			for j := 0; j < k; j++ {
				s.TStore(ctx, 0, memory.Addr(1024+j*memory.LineWords), uint64(i))
			}
			start := time.Now()
			if s.CASCommit(ctx, 0, tsw, 1, 2) != tmesi.CommitOK {
				bad++
			}
			d += time.Since(start)
		}
	})
	if err == nil && bad > 0 {
		err = fmt.Errorf("%d of %d commits failed", bad, n)
	}
	return perOp(d, n), err
}

// fullL1 returns a default L1 with every set way and victim entry valid,
// and the resident line addresses.
func fullL1() (*cache.Cache, []memory.LineAddr) {
	cfg := cache.DefaultL1Config()
	c := cache.New(cfg)
	lines := make([]memory.LineAddr, cfg.Sets*cfg.Ways+cfg.VictimSize)
	for i := range lines {
		lines[i] = memory.LineAddr(i)
		c.Insert(cache.Line{Tag: lines[i], State: cache.Shared})
	}
	return c, lines
}

// cacheLookup is an L1 tag lookup that hits.
func cacheLookup(n int) (float64, error) {
	c, lines := fullL1()
	start := time.Now()
	miss := 0
	for i := 0; i < n; i++ {
		if c.Lookup(lines[(i*7)%len(lines)]) == nil {
			miss++
		}
	}
	d := time.Since(start)
	if miss > 0 {
		return 0, fmt.Errorf("%d lookups of resident lines missed", miss)
	}
	return perOp(d, n), nil
}

// cacheFlash is FlashCommit followed by ClearAlerts on a full default L1
// of valid, alerted lines none of which is speculative: the two
// whole-cache walks every FlexTM commit makes, whatever it wrote.
func cacheFlash(n int) (float64, error) {
	c, lines := fullL1()
	var d time.Duration
	for i := 0; i < n; i++ {
		for _, l := range lines {
			c.Lookup(l).Alert = true
		}
		start := time.Now()
		committed := c.FlashCommit()
		c.ClearAlerts()
		d += time.Since(start)
		if len(committed) != 0 {
			return 0, fmt.Errorf("flash commit of a cache with no TMI line committed %d", len(committed))
		}
	}
	return perOp(d, n), nil
}

// sigInsert adds a line to a default read/write signature.
func sigInsert(n int) (float64, error) {
	s := signature.NewDefault()
	start := time.Now()
	for i := 0; i < n; i++ {
		s.Insert(memory.LineAddr(i * 7919))
	}
	return perOp(time.Since(start), n), nil
}

// sigMember tests a line against a signature holding 64 lines, a typical
// transaction's footprint.
func sigMember(n int) (float64, error) {
	s := signature.NewDefault()
	for i := 0; i < 64; i++ {
		s.Insert(memory.LineAddr(i * 7919))
	}
	hits := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if s.Member(memory.LineAddr(i * 31)) {
			hits++
		}
	}
	d := time.Since(start)
	sink += hits
	return perOp(d, n), nil
}

// sink keeps the compiler from discarding probe results.
var sink int

func perOp(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / float64(n)
}
