package tmesi

import (
	"fmt"
	"testing"
	"time"

	"flextm/internal/cache"
	"flextm/internal/memory"
	"flextm/internal/sim"
)

func TestOrdinaryLoadOfOwnTMISeesSpeculative(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, 100, 1)
		s.BeginTxn(0)
		s.TStore(ctx, 0, 100, 9)
		// An ordinary load on the same core reads the local (speculative)
		// copy; bypass instructions see the core's own cache.
		if v := s.Load(ctx, 0, 100).Val; v != 9 {
			t.Fatalf("own ordinary load = %d, want 9", v)
		}
	})
}

func TestStickySharerPreventsSilentUpgrade(t *testing.T) {
	// Regression companion for the eager-audit bug: a reader's cached copy
	// is invalidated (its signature still covers the line), then evicted
	// writers come and go; a later read miss by another core must get S,
	// not E, so its subsequent TStore still probes the reader.
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		s.TLoad(ctx, 0, 4096) // reader: line in Rsig
		// Drop the cached copy via remote GETX-free path: simulate silent
		// eviction by filling the set (4 sets here, line 4096 maps with
		// others at stride 4*8 words).
		ctx.Advance(10000)
		ctx.Sync()
		// Reader still active; its rsig covers line 512 (=4096/8).
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.BeginTxn(1)
		res := s.TLoad(ctx, 1, 4096)
		_ = res
		if st := s.LineState(1, memory.Addr(4096).Line()); st == cache.Exclusive {
			t.Fatal("second reader granted E while a txn signature covers the line")
		}
		// The upgrade must therefore probe and report the exposed read.
		r2 := s.TStore(ctx, 1, 4096, 5)
		found := false
		for _, c := range r2.Conflicts {
			if c.Msg == ExposedRead && c.Responder == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("TStore conflicts = %+v, want Exposed-Read from core 0", r2.Conflicts)
		}
	})
}

func TestGETXInvalidatesTILines(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		s.TStore(ctx, 0, 200, 9) // threatens the line
		ctx.Advance(10000)
		ctx.Sync()
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(500)
		s.BeginTxn(1)
		s.TLoad(ctx, 1, 200) // TI copy
		if st := s.LineState(1, memory.Addr(200).Line()); st != cache.TI {
			t.Fatalf("state %v, want TI", st)
		}
		ctx.Advance(5000)
		ctx.Sync()
		if st := s.LineState(1, memory.Addr(200).Line()); st != cache.Invalid {
			t.Fatalf("TI survived a remote GETX: %v", st)
		}
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(2000)
		s.Store(ctx, 2, 200, 7) // ordinary store invalidates all copies
	})
}

func TestDrainWindowActuallyStalls(t *testing.T) {
	cfg := smallCfg()
	cfg.DrainPerLine = 500
	const tsw = memory.Addr(8)
	var accessLat sim.Time
	run(t, cfg, func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, tsw, 1)
		s.BeginTxn(0)
		for i := 0; i < 20; i++ {
			s.TStore(ctx, 0, memory.Addr(20000+i*memory.LineWords), 1)
		}
		s.CASCommit(ctx, 0, tsw, 1, 2)
	}, func(ctx *sim.Ctx, s *System) {
		// Arrive within the drain window of core 0's commit.
		for s.Stats().FlashCommits == 0 {
			ctx.Advance(200)
			ctx.Sync()
		}
		t0 := ctx.Now()
		s.Load(ctx, 1, 20000)
		accessLat = ctx.Now() - t0
	})
	if accessLat < 400 {
		t.Fatalf("access during copy-back took only %d cycles; NACK window not modeled", accessLat)
	}
}

func TestVictimBufferEvictionOfAlertLineRaisesAlert(t *testing.T) {
	cfg := smallCfg()
	cfg.L1 = cache.Config{Sets: 1, Ways: 1, VictimSize: 1}
	run(t, cfg, func(ctx *sim.Ctx, s *System) {
		s.ALoad(ctx, 0, 0)
		// Two more lines push the alerted line out of the 1-way set and
		// then out of the 1-entry victim buffer.
		s.Load(ctx, 0, memory.LineWords)
		s.Load(ctx, 0, 2*memory.LineWords)
		if _, ok := s.TakeAlert(0); !ok {
			t.Fatal("losing an alerted line must raise the alert (conservative AOU)")
		}
	})
}

func TestRaiseAlertSynthetic(t *testing.T) {
	s := New(smallCfg())
	s.RaiseAlert(2, 800)
	line, ok := s.TakeAlert(2)
	if !ok || line != memory.Addr(800).Line() {
		t.Fatalf("TakeAlert = (%v,%v)", line, ok)
	}
	if _, ok := s.TakeAlert(2); ok {
		t.Fatal("alert delivered twice")
	}
}

func TestAlertQueueDeliversMultiple(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.ALoad(ctx, 0, 1000)
		s.ALoad(ctx, 0, 2000)
		ctx.Advance(10000)
		ctx.Sync()
		got := map[memory.LineAddr]bool{}
		for {
			l, ok := s.TakeAlert(0)
			if !ok {
				break
			}
			got[l] = true
		}
		if len(got) != 2 {
			t.Fatalf("alerts delivered for %d lines, want 2", len(got))
		}
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.Store(ctx, 1, 1000, 1)
		s.Store(ctx, 1, 2000, 1)
	})
}

func TestConcurrentFetchAdd(t *testing.T) {
	s := New(smallCfg())
	e := sim.NewEngine()
	for i := 0; i < 4; i++ {
		core := i
		e.Spawn("fa", 0, func(ctx *sim.Ctx) {
			for j := 0; j < 50; j++ {
				s.FetchAdd(ctx, core, 3000, 1)
			}
		})
	}
	e.Run()
	if v := s.ReadWordRaw(3000); v != 200 {
		t.Fatalf("counter = %d, want 200", v)
	}
}

func TestL2MissLatencyCharged(t *testing.T) {
	cfg := smallCfg()
	s := New(cfg)
	e := sim.NewEngine()
	e.Spawn("t", 0, func(ctx *sim.Ctx) {
		// Touch more distinct lines than the L2 holds (64 sets x 4 ways).
		misses0 := s.Stats().L2Misses
		for i := 0; i < 1000; i++ {
			s.Load(ctx, 0, memory.Addr(i*memory.LineWords))
		}
		if s.Stats().L2Misses-misses0 < 1000 {
			t.Errorf("cold pass: want >= 1000 L2 misses, got %d", s.Stats().L2Misses-misses0)
		}
		// Second pass over a small L2: capacity evictions cause re-misses.
		misses1 := s.Stats().L2Misses
		for i := 0; i < 1000; i++ {
			s.Load(ctx, 0, memory.Addr(i*memory.LineWords))
		}
		if s.Stats().L2Misses == misses1 {
			t.Error("second pass: expected L2 capacity misses on a 256-line L2")
		}
	})
	e.Run()
}

func TestBeginTxnTwicePanics(t *testing.T) {
	s := New(smallCfg())
	s.BeginTxn(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double BeginTxn did not panic")
		}
	}()
	s.BeginTxn(0)
}

func TestSummaryReadSigOnlyTrapsWrites(t *testing.T) {
	s := New(smallCfg())
	rs := s.Rsig(0).Clone()
	rs.Insert(memory.Addr(5000).Line())
	traps := 0
	s.InstallSummary(rs, nil, func(req int, line memory.LineAddr, write bool) []Conflict {
		traps++
		return nil
	})
	e := sim.NewEngine()
	e.Spawn("t", 0, func(ctx *sim.Ctx) {
		s.Load(ctx, 1, 5000) // read vs suspended read: no trap
		if traps != 0 {
			t.Error("read-read trapped")
		}
		s.Store(ctx, 1, 5000, 1) // write vs suspended read: trap
		if traps != 1 {
			t.Errorf("traps = %d, want 1", traps)
		}
	})
	e.Run()
}

func TestPageRemapPreservesSpeculativeState(t *testing.T) {
	// Section 4.1: a transaction TStores a line; the OS unmaps its page
	// (TMI lines flushed to the OT), remaps it to a new frame (tags and
	// signatures updated), and the transaction continues at the new
	// physical address, committing there.
	const tsw = memory.Addr(8)
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		oldA := memory.Addr(30000)
		newA := memory.Addr(40000)
		s.Store(ctx, 0, tsw, 1)
		s.BeginTxn(0)
		s.TStore(ctx, 0, oldA, 77)

		// OS: unmap the old frame, remap to the new one.
		s.FlushTMIToOT(0, []memory.LineAddr{oldA.Line()})
		s.RemapLine(0, oldA.Line(), newA.Line())

		if !s.Wsig(0).Member(newA.Line()) {
			t.Fatal("Wsig not updated for the new frame")
		}
		// The speculative value is now reachable at the new address.
		if v := s.TLoad(ctx, 0, newA).Val; v != 77 {
			t.Fatalf("TLoad(new frame) = %d, want 77", v)
		}
		if out := s.CASCommit(ctx, 0, tsw, 1, 2); out != CommitOK {
			t.Fatalf("CASCommit = %v", out)
		}
		if v := s.ReadWordRaw(newA); v != 77 {
			t.Fatalf("committed value at new frame = %d", v)
		}
	})
}

func BenchmarkTLoadHit(b *testing.B) {
	s := New(DefaultConfig())
	e := sim.NewEngine()
	e.Spawn("b", 0, func(ctx *sim.Ctx) {
		s.BeginTxn(0)
		s.TLoad(ctx, 0, 100)
		for i := 0; i < b.N; i++ {
			s.TLoad(ctx, 0, 100)
		}
	})
	e.Run()
}

func BenchmarkTStoreCommitCycle(b *testing.B) {
	s := New(DefaultConfig())
	e := sim.NewEngine()
	e.Spawn("b", 0, func(ctx *sim.Ctx) {
		const tsw = memory.Addr(8)
		for i := 0; i < b.N; i++ {
			s.Store(ctx, 0, tsw, 1)
			s.BeginTxn(0)
			s.TStore(ctx, 0, 200, uint64(i))
			s.CASCommit(ctx, 0, tsw, 1, 2)
		}
	})
	e.Run()
}

// BenchmarkCASCommit is a successful CAS-Commit that flash-commits K TMI
// lines. Each iteration also sets the status word, begins and issues the K
// TStores (ns/op); commit-ns/op times the CASCommit call alone.
func BenchmarkCASCommit(b *testing.B) {
	for _, k := range []int{1, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			s := New(DefaultConfig())
			e := sim.NewEngine()
			var commit time.Duration
			failed := 0
			e.Spawn("b", 0, func(ctx *sim.Ctx) {
				const tsw = memory.Addr(8)
				for i := 0; i < b.N; i++ {
					s.Store(ctx, 0, tsw, 1)
					s.BeginTxn(0)
					for j := 0; j < k; j++ {
						s.TStore(ctx, 0, memory.Addr(1024+j*memory.LineWords), uint64(i))
					}
					start := time.Now()
					if s.CASCommit(ctx, 0, tsw, 1, 2) != CommitOK {
						failed++
					}
					commit += time.Since(start)
				}
			})
			e.Run()
			if failed > 0 {
				b.Fatalf("%d of %d CAS-Commits failed", failed, b.N)
			}
			b.ReportMetric(float64(commit.Nanoseconds())/float64(b.N), "commit-ns/op")
		})
	}
}

// BenchmarkProbeMiss is the directory miss/forward path: a load miss on
// core 0 that is forwarded to the 15 other L1s, each holding a full set
// array and a full victim buffer of lines none of which is the one asked
// for.
func BenchmarkProbeMiss(b *testing.B) {
	cfg := DefaultConfig()
	s := New(cfg)
	e := sim.NewEngine()
	e.Spawn("b", 0, func(ctx *sim.Ctx) {
		per := cfg.L1.Sets*cfg.L1.Ways + cfg.L1.VictimSize
		for r := 1; r < cfg.Cores; r++ {
			for i := 0; i < per; i++ {
				s.Load(ctx, r, memory.LineAddr(r*per+i).WordOf(0))
			}
		}
		next := memory.LineAddr(cfg.Cores * per)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Load(ctx, 0, next.WordOf(0))
			next++
		}
	})
	e.Run()
}
