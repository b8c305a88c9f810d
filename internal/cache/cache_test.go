package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"flextm/internal/memory"
)

func small() *Cache { return New(Config{Sets: 4, Ways: 2, VictimSize: 2}) }

func TestInsertLookup(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 17, State: Shared})
	ln := c.Lookup(17)
	if ln == nil || ln.State != Shared {
		t.Fatal("inserted line not found")
	}
	if c.Lookup(18) != nil {
		t.Fatal("phantom hit")
	}
}

func TestInsertResidentPanics(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 1, State: Shared})
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(Line{Tag: 1, State: Exclusive})
}

func TestLRUEvictionGoesToVictimBuffer(t *testing.T) {
	c := small()
	// Lines 0, 4, 8 all map to set 0 (4 sets).
	c.Insert(Line{Tag: 0, State: Shared})
	c.Insert(Line{Tag: 4, State: Shared})
	c.Lookup(0) // make 4 the LRU
	if spilled := c.Insert(Line{Tag: 8, State: Shared}); spilled != nil {
		t.Fatal("victim buffer should have absorbed the eviction")
	}
	// 4 must still be findable (victim buffer hit).
	if c.Lookup(4) == nil {
		t.Fatal("evicted line lost; victim buffer not searched")
	}
}

func TestVictimBufferOverflowSpills(t *testing.T) {
	c := small()
	var spilled []Victimized
	// Fill set 0 and overflow the 2-entry victim buffer.
	for i := 0; i < 6; i++ {
		spilled = append(spilled, c.Insert(Line{Tag: memory.LineAddr(i * 4), State: TMI})...)
	}
	if len(spilled) != 2 {
		t.Fatalf("spilled %d lines, want 2", len(spilled))
	}
	for _, v := range spilled {
		if v.Line.State != TMI {
			t.Fatalf("spilled line in state %v", v.Line.State)
		}
	}
}

func TestUnboundedVictimBufferNeverSpills(t *testing.T) {
	c := New(Config{Sets: 2, Ways: 1, VictimSize: -1})
	for i := 0; i < 100; i++ {
		if sp := c.Insert(Line{Tag: memory.LineAddr(i * 2), State: TMI}); sp != nil {
			t.Fatal("unbounded victim buffer spilled")
		}
	}
	// Everything remains findable.
	for i := 0; i < 100; i++ {
		if c.Lookup(memory.LineAddr(i*2)) == nil {
			t.Fatalf("line %d lost", i*2)
		}
	}
}

func TestZeroVictimBufferSpillsImmediately(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, VictimSize: 0})
	c.Insert(Line{Tag: 1, State: Modified})
	sp := c.Insert(Line{Tag: 2, State: Shared})
	if len(sp) != 1 || sp[0].Line.Tag != 1 {
		t.Fatalf("spill = %+v, want line 1", sp)
	}
}

func TestFlashCommit(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 1, State: TMI, Data: memory.LineData{42}})
	c.Insert(Line{Tag: 2, State: TI})
	c.Insert(Line{Tag: 3, State: Shared})
	committed := c.FlashCommit()
	if len(committed) != 1 || committed[0] != 1 {
		t.Fatalf("committed = %v, want [1]", committed)
	}
	if ln := c.Lookup(1); ln == nil || ln.State != Modified || ln.Data[0] != 42 {
		t.Fatal("TMI line did not become M with data intact")
	}
	if c.Lookup(2) != nil {
		t.Fatal("TI line survived commit")
	}
	if ln := c.Lookup(3); ln == nil || ln.State != Shared {
		t.Fatal("S line disturbed by flash commit")
	}
}

func TestFlashAbort(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 1, State: TMI})
	c.Insert(Line{Tag: 2, State: TI})
	c.Insert(Line{Tag: 3, State: Modified, Data: memory.LineData{7}})
	if n := c.FlashAbort(); n != 2 {
		t.Fatalf("FlashAbort dropped %d, want 2", n)
	}
	if c.Lookup(1) != nil || c.Lookup(2) != nil {
		t.Fatal("speculative lines survived abort")
	}
	if ln := c.Lookup(3); ln == nil || ln.State != Modified || ln.Data[0] != 7 {
		t.Fatal("non-speculative M line lost on abort")
	}
}

func TestFlashOpsReachVictimBuffer(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, VictimSize: 4})
	c.Insert(Line{Tag: 1, State: TMI})
	c.Insert(Line{Tag: 2, State: Shared}) // pushes 1 into the victim buffer
	if c.Lookup(1) == nil {
		t.Fatal("line 1 should be in victim buffer")
	}
	if n := c.FlashAbort(); n != 1 {
		t.Fatalf("FlashAbort dropped %d, want 1 (victim buffer line)", n)
	}
	if c.Lookup(1) != nil {
		t.Fatal("victim-buffer TMI line survived abort")
	}
}

func TestTMILines(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 1, State: TMI})
	c.Insert(Line{Tag: 5, State: TMI})
	c.Insert(Line{Tag: 2, State: Modified})
	got := c.TMILines()
	if len(got) != 2 {
		t.Fatalf("TMILines = %v, want 2 entries", got)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 9, State: Modified, Data: memory.LineData{1, 2}})
	old, ok := c.Invalidate(9)
	if !ok || old.State != Modified || old.Data[1] != 2 {
		t.Fatal("Invalidate did not return prior contents")
	}
	if c.Lookup(9) != nil {
		t.Fatal("line still resident after Invalidate")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("Invalidate of absent line reported ok")
	}
}

func TestResidentCount(t *testing.T) {
	c := small()
	if c.Resident() != 0 {
		t.Fatal("fresh cache not empty")
	}
	c.Insert(Line{Tag: 1, State: Shared})
	c.Insert(Line{Tag: 2, State: Exclusive})
	if c.Resident() != 2 {
		t.Fatalf("Resident = %d, want 2", c.Resident())
	}
}

func TestStateStringAndPredicates(t *testing.T) {
	if Modified.String() != "M" || TMI.String() != "TMI" || TI.String() != "TI" {
		t.Fatal("state names wrong")
	}
	if !TMI.Speculative() || !TI.Speculative() || Modified.Speculative() {
		t.Fatal("Speculative predicate wrong")
	}
	if Invalid.Valid() || !Shared.Valid() {
		t.Fatal("Valid predicate wrong")
	}
}

func TestCacheNeverLosesTrackedLines(t *testing.T) {
	// Property: with an unbounded victim buffer, every inserted line is
	// either resident or was explicitly invalidated.
	f := func(tags []uint16) bool {
		c := New(Config{Sets: 8, Ways: 2, VictimSize: -1})
		inserted := map[memory.LineAddr]bool{}
		for _, tg := range tags {
			l := memory.LineAddr(tg % 512)
			if c.Lookup(l) == nil {
				c.Insert(Line{Tag: l, State: Shared})
				inserted[l] = true
			}
		}
		for l := range inserted {
			if c.Lookup(l) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTagCacheHitMissEvict(t *testing.T) {
	tc := NewTagCache(2, 2)
	if hit, _, _ := tc.Touch(0); hit {
		t.Fatal("cold miss reported as hit")
	}
	if hit, _, _ := tc.Touch(0); !hit {
		t.Fatal("warm access reported as miss")
	}
	tc.Touch(2) // set 0 now has {0, 2}
	tc.Touch(0) // make 2 LRU
	_, ev, has := tc.Touch(4)
	if !has || ev != 2 {
		t.Fatalf("evicted %v (has=%v), want 2", ev, has)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{{Sets: 0, Ways: 1}, {Sets: 3, Ways: 1}, {Sets: 4, Ways: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestUnboundedTMIVictimKeepsSpeculativeOnly(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, VictimSize: 1, UnboundedTMIVictim: true})
	var spilled []Victimized
	// Alternate TMI and Shared lines through the single set.
	for i := 0; i < 10; i++ {
		st := TMI
		if i%2 == 1 {
			st = Shared
		}
		spilled = append(spilled, c.Insert(Line{Tag: memory.LineAddr(i), State: st})...)
	}
	for _, v := range spilled {
		if v.Line.State == TMI {
			t.Fatalf("TMI line %d spilled despite unbounded TMI victim buffer", v.Line.Tag)
		}
	}
	// All TMI lines must still be resident.
	for i := 0; i < 9; i += 2 {
		ln := c.Lookup(memory.LineAddr(i))
		if i == 8 {
			continue // line 8 is in the set itself
		}
		if ln == nil || ln.State != TMI {
			t.Fatalf("TMI line %d lost", i)
		}
	}
}

// The reference flash operations walk every line of the set array and the
// victim buffer, compacting the victim buffer afterwards.
func refWalk(c *Cache, f func(*Line)) {
	for si := range c.sets {
		for wi := range c.sets[si] {
			f(&c.sets[si][wi])
		}
	}
	var live []Line
	for i := range c.victim {
		f(&c.victim[i])
		if c.victim[i].State != Invalid {
			live = append(live, c.victim[i])
		}
	}
	c.victim = append(c.victim[:0], live...)
}

func refFlashCommit(c *Cache) []memory.LineAddr {
	var committed []memory.LineAddr
	refWalk(c, func(ln *Line) {
		switch ln.State {
		case TMI:
			ln.State = Modified
			committed = append(committed, ln.Tag)
		case TI:
			ln.State = Invalid
		}
	})
	return committed
}

func refFlashAbort(c *Cache) int {
	n := 0
	refWalk(c, func(ln *Line) {
		if ln.State == TMI || ln.State == TI {
			ln.State = Invalid
			n++
		}
	})
	return n
}

func refClearAlerts(c *Cache) {
	refWalk(c, func(ln *Line) { ln.Alert = false })
}

// TestFlashOpsMatchFullWalk drives a cache and a reference copy through the
// same random operations. The reference's flash operations walk every
// line; the cache's visit only the sets it marked. Sets, victim buffer,
// return values and Resident must agree after every operation.
func TestFlashOpsMatchFullWalk(t *testing.T) {
	geoms := []Config{
		DefaultL1Config(),
		{Sets: 256, Ways: 2, VictimSize: 0},
		{Sets: 256, Ways: 2, VictimSize: 32, UnboundedTMIVictim: true},
	}
	states := []State{Shared, Exclusive, Modified, TMI, TI}
	for _, cfg := range geoms {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := New(cfg), New(cfg)
			tags := memory.LineAddr(cfg.Sets * cfg.Ways * 3)
			for op := 0; op < 4000; op++ {
				l := memory.LineAddr(rng.Int63n(int64(tags)))
				var what string
				switch k := rng.Intn(100); {
				case k < 35:
					what = "insert"
					if g, w := got.Lookup(l), want.Lookup(l); g != nil || w != nil {
						break
					}
					ln := Line{Tag: l, State: states[rng.Intn(len(states))], Alert: rng.Intn(8) == 0, Data: memory.LineData{uint64(op)}}
					if g, w := got.Insert(ln), want.Insert(ln); !reflect.DeepEqual(g, w) {
						t.Fatalf("%+v seed %d op %d: Insert spilled %v, want %v", cfg, seed, op, g, w)
					}
				case k < 80:
					what = "lookup+write"
					g, w := got.Lookup(l), want.Lookup(l)
					if (g == nil) != (w == nil) {
						t.Fatalf("%+v seed %d op %d: Lookup(%d) hit %v, want %v", cfg, seed, op, l, g != nil, w != nil)
					}
					if g == nil {
						break
					}
					switch rng.Intn(4) {
					case 0:
						g.State, w.State = TMI, TMI
					case 1:
						g.State, w.State = TI, TI
					case 2:
						g.Alert, w.Alert = true, true
					}
				case k < 90:
					what = "invalidate"
					g, gok := got.Invalidate(l)
					w, wok := want.Invalidate(l)
					if g != w || gok != wok {
						t.Fatalf("%+v seed %d op %d: Invalidate(%d) = %v %v, want %v %v", cfg, seed, op, l, g, gok, w, wok)
					}
				case k < 94:
					what = "commit"
					if g, w := got.FlashCommit(), refFlashCommit(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("%+v seed %d op %d: FlashCommit = %v, want %v", cfg, seed, op, g, w)
					}
				case k < 97:
					what = "abort"
					if g, w := got.FlashAbort(), refFlashAbort(want); g != w {
						t.Fatalf("%+v seed %d op %d: FlashAbort = %d, want %d", cfg, seed, op, g, w)
					}
				default:
					what = "clear alerts"
					got.ClearAlerts()
					refClearAlerts(want)
				}
				if !sameLines(got, want) {
					t.Fatalf("%+v seed %d op %d (%s): cache contents diverge from the full walk", cfg, seed, op, what)
				}
				if g, w := got.Resident(), want.Resident(); g != w {
					t.Fatalf("%+v seed %d op %d (%s): Resident = %d, want %d", cfg, seed, op, what, g, w)
				}
			}
		}
	}
}

// sameLines reports whether two caches hold identical set arrays and
// victim buffers, line for line.
func sameLines(a, b *Cache) bool {
	for si := range a.sets {
		for wi := range a.sets[si] {
			if a.sets[si][wi] != b.sets[si][wi] {
				return false
			}
		}
	}
	if len(a.victim) != len(b.victim) {
		return false
	}
	for i := range a.victim {
		if a.victim[i] != b.victim[i] {
			return false
		}
	}
	return true
}
