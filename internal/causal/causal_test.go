package causal

import (
	"bytes"
	"slices"
	"testing"

	"flextm/internal/cst"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/sim"
)

// stream builds a record slice with sequential Seq numbers, mirroring what
// Recorder.Snapshot returns.
type stream struct {
	recs []flight.Rec
}

func (s *stream) add(at sim.Time, core int, k flight.Kind, peer int, aux uint8, line memory.LineAddr, dur sim.Time) {
	s.recs = append(s.recs, flight.Rec{
		At: at, Dur: dur, Line: line, Seq: uint64(len(s.recs) + 1),
		Core: int16(core), Peer: int16(peer), Kind: k, Aux: aux,
	})
}

func TestAnalyzeEmpty(t *testing.T) {
	if rep := Analyze(nil, Options{}); rep != nil {
		t.Fatalf("empty window produced a report: %+v", rep)
	}
}

// TestKillChainCriticalPath is the analyzer's core scenario: core 1 kills
// core 0's first attempt on line 0x40 (a signature false positive), core 0
// backs off and retries to the run's last commit. The critical path must be
// the contiguous chain killer-span → kill → victim-lag → backoff → retry,
// with the contested line blamed for the aborted and backoff cycles.
func TestKillChainCriticalPath(t *testing.T) {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(10, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(20, 1, flight.AbortEnemy, 0, flight.AuxFP, 0x40, 0)
	s.add(25, 0, flight.TxnAbort, -1, 0, 0, 0)
	s.add(25, 0, flight.Backoff, -1, 1, 0, 35)
	s.add(40, 1, flight.TxnCommit, -1, 0, 0, 0)
	s.add(60, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(100, 0, flight.TxnCommit, -1, 0, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 2})
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Attempts != 3 || rep.Commits != 2 || rep.Aborts != 1 {
		t.Fatalf("attempts/commits/aborts = %d/%d/%d, want 3/2/1", rep.Attempts, rep.Commits, rep.Aborts)
	}
	if rep.LastCommitAt != 100 || rep.PathStart != 10 || rep.PathCycles != 90 {
		t.Fatalf("path [%d,%d] = %d cycles, want [10,100] = 90", rep.PathStart, rep.LastCommitAt, rep.PathCycles)
	}
	// Contiguity: every segment starts where the previous ended.
	for i := 1; i < len(rep.Path); i++ {
		if rep.Path[i].Start != rep.Path[i-1].End {
			t.Fatalf("path not contiguous at segment %d: %+v", i, rep.Path)
		}
	}
	wantKinds := []string{"span", "aborted", "backoff", "span"}
	wantEdges := []string{"", "kill", "seq", "retry"}
	if len(rep.Path) != len(wantKinds) {
		t.Fatalf("path = %+v, want %d segments", rep.Path, len(wantKinds))
	}
	for i, seg := range rep.Path {
		if seg.Kind != wantKinds[i] || seg.Edge != wantEdges[i] {
			t.Fatalf("segment %d = %s/%q, want %s/%q (%+v)", i, seg.Kind, seg.Edge, wantKinds[i], wantEdges[i], rep.Path)
		}
	}
	// The kill jump hands [10,20] to the killer, [20,25] + backoff to 0x40.
	if rep.Path[0].Core != 1 || rep.Path[0].Start != 10 || rep.Path[0].End != 20 {
		t.Fatalf("killer segment = %+v, want core 1 [10,20]", rep.Path[0])
	}
	tb := rep.TopBlame()
	if tb == nil || tb.Line != 0x40 {
		t.Fatalf("top blame = %+v, want line 0x40", tb)
	}
	if want := uint64((25 - 20) + (60 - 25)); tb.Cycles != want {
		t.Fatalf("blame cycles = %d, want %d (aborted tail + backoff)", tb.Cycles, want)
	}
	if tb.FPCycles != tb.Cycles {
		t.Fatalf("FP cycles = %d of %d, want all (kill was a false positive)", tb.FPCycles, tb.Cycles)
	}
	// Wasted ledger: core 1 killed one attempt worth 25 cycles.
	if len(rep.Wasted) != 1 || rep.Wasted[0].Killer != 1 || rep.Wasted[0].Cycles != 25 {
		t.Fatalf("wasted = %+v, want core 1 / 25 cycles", rep.Wasted)
	}
	if len(rep.Pairs) != 1 || rep.Pairs[0].Killer != 1 || rep.Pairs[0].Victim != 0 || rep.Pairs[0].Kills != 1 {
		t.Fatalf("pairs = %+v, want 1→0 x1", rep.Pairs)
	}
}

// TestLazyKillLineAttribution: a commit-loop kill carries no line in its
// AbortEnemy record; the analyzer must charge the pair's most recent CST
// conflict line instead.
func TestLazyKillLineAttribution(t *testing.T) {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(5, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(10, 1, flight.CSTSet, 0, uint8(cst.WW)|flight.AuxFP, 0x77, 0)
	s.add(20, 1, flight.AbortEnemy, 0, 0, 0, 0) // lazy kill: no line
	s.add(25, 0, flight.TxnAbort, -1, 0, 0, 0)
	s.add(40, 1, flight.TxnCommit, -1, 0, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 2})
	victim := rep.PerCore[0][0]
	if victim.KillLine != 0x77 || !victim.KillFP {
		t.Fatalf("lazy kill attribution = line 0x%x fp=%v, want 0x77 fp=true", victim.KillLine, victim.KillFP)
	}
}

// TestFailedCASInventsNoAttempt: an AbortEnemy record against a core whose
// attempt already closed (the second CAS of a parallel kill) must not
// synthesize a phantom attempt.
func TestFailedCASInventsNoAttempt(t *testing.T) {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(10, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(20, 1, flight.AbortEnemy, 0, 0, 0x40, 0)
	s.add(25, 0, flight.TxnAbort, -1, 0, 0, 0)
	s.add(26, 1, flight.AbortEnemy, 0, 0, 0x80, 0) // CAS lost: victim already dead
	s.add(40, 1, flight.TxnCommit, -1, 0, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 2})
	if len(rep.PerCore[0]) != 1 {
		t.Fatalf("core 0 attempts = %+v, want 1 (failed CAS must not invent nodes)", rep.PerCore[0])
	}
	if got := rep.PerCore[0][0].KillLine; got != 0x40 {
		t.Fatalf("kill line = 0x%x, want 0x40 (first CAS wins)", got)
	}
}

// TestAnalyzeWindowEdges: a window cut from a longer run starts and ends
// mid-attempt. A commit or abort whose begin was lost still counts, as a
// zero-width attempt at its record, so the totals match the runtime's
// counters; an attempt the window ends inside is kept as Open up to the
// window's end; a kill aimed at a core the window has not seen yet lands
// on that core's lost head attempt, which its next begin cuts (still
// Open). Well-formed attempts beside them are untouched.
func TestAnalyzeWindowEdges(t *testing.T) {
	type att struct {
		start, end sim.Time
		outcome    Outcome
		killer     int
	}
	cases := []struct {
		name                      string
		cores                     int
		recs                      func(s *stream)
		commits, aborts, attempts int
		winEnd                    sim.Time
		perCore                   [][]att
	}{{
		name: "orphans", cores: 3,
		recs: func(s *stream) {
			s.add(10, 0, flight.TxnCommit, -1, 0, 0, 0) // begin lost
			s.add(20, 1, flight.TxnAbort, -1, 0, 0, 0)  // begin lost
			s.add(30, 2, flight.TxnBegin, -1, 0, 0, 0)
			s.add(90, 2, flight.TxnCommit, -1, 0, 0, 0)
		},
		commits: 2, aborts: 1, attempts: 3, winEnd: 90,
		perCore: [][]att{
			{{10, 10, Committed, -1}},
			{{20, 20, Aborted, -1}},
			{{30, 90, Committed, -1}},
		},
	}, {
		name: "open at end", cores: 2,
		recs: func(s *stream) {
			s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
			s.add(5, 1, flight.TxnBegin, -1, 0, 0, 0)
			s.add(50, 1, flight.TxnCommit, -1, 0, 0, 0)
		},
		commits: 1, aborts: 0, attempts: 2, winEnd: 50,
		perCore: [][]att{
			{{0, 50, Open, -1}},
			{{5, 50, Committed, -1}},
		},
	}, {
		name: "truncated stream", cores: 4,
		recs: func(s *stream) {
			s.add(10, 1, flight.TxnCommit, -1, 0, 0, 0) // begin lost
			s.add(12, 2, flight.TxnAbort, -1, 0, 0, 0)  // begin lost
			s.add(20, 0, flight.TxnBegin, -1, 0, 0, 0)
			s.add(25, 0, flight.AbortEnemy, 3, 0, 0x40, 0) // core 3's begin lost
			s.add(28, 3, flight.TxnBegin, -1, 0, 0, 0)     // never resolves
			s.add(30, 0, flight.TxnCommit, -1, 0, 0, 0)
		},
		commits: 2, aborts: 1, attempts: 5, winEnd: 30,
		perCore: [][]att{
			{{20, 30, Committed, -1}},
			{{10, 10, Committed, -1}},
			{{12, 12, Aborted, -1}},
			{{25, 28, Open, 0}, {28, 30, Open, -1}},
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s stream
			tc.recs(&s)
			rep := Analyze(s.recs, Options{Cores: tc.cores})
			if rep.Commits != tc.commits || rep.Aborts != tc.aborts || rep.Attempts != tc.attempts {
				t.Errorf("commits/aborts/attempts = %d/%d/%d, want %d/%d/%d",
					rep.Commits, rep.Aborts, rep.Attempts, tc.commits, tc.aborts, tc.attempts)
			}
			if rep.WinEnd != tc.winEnd {
				t.Errorf("window end = %d, want %d", rep.WinEnd, tc.winEnd)
			}
			if len(rep.PerCore) != len(tc.perCore) {
				t.Fatalf("%d cores, want %d", len(rep.PerCore), len(tc.perCore))
			}
			for c, want := range tc.perCore {
				var got []att
				for _, a := range rep.PerCore[c] {
					got = append(got, att{a.Start, a.End, a.Outcome, a.KillerCore})
				}
				if !slices.Equal(got, want) {
					t.Errorf("core %d attempts = %v, want %v", c, got, want)
				}
			}
		})
	}
}

// TestCMStallBlamedInsideSpan: stall cycles recorded inside an on-path
// committed span are charged to the stalling line.
func TestCMStallBlamedInsideSpan(t *testing.T) {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(30, 0, flight.CMStall, 1, 0, 0x99, 25)
	s.add(50, 0, flight.TxnCommit, -1, 0, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 2})
	tb := rep.TopBlame()
	if tb == nil || tb.Line != 0x99 || tb.Cycles != 25 {
		t.Fatalf("top blame = %+v, want line 0x99 / 25 cycles", tb)
	}
}

// TestTopBlameCap: the blame table honors Options.TopBlame.
func TestTopBlameCap(t *testing.T) {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	for i := 0; i < 5; i++ {
		s.add(sim.Time(10+i), 0, flight.CMStall, 1, 0, memory.LineAddr(0x10+i), sim.Time(20-i))
	}
	s.add(50, 0, flight.TxnCommit, -1, 0, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 2, TopBlame: 2})
	if len(rep.Blame) != 2 {
		t.Fatalf("blame table = %+v, want 2 entries", rep.Blame)
	}
	if rep.Blame[0].Cycles < rep.Blame[1].Cycles {
		t.Fatalf("blame not sorted by cycles: %+v", rep.Blame)
	}
}

// TestReportJSONDeterministic: the same records render byte-identical JSON.
func TestReportJSONDeterministic(t *testing.T) {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(10, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(20, 1, flight.AbortEnemy, 0, 0, 0x40, 0)
	s.add(25, 0, flight.TxnAbort, -1, 0, 0, 0)
	s.add(40, 1, flight.TxnCommit, -1, 0, 0, 0)
	var a, b bytes.Buffer
	if err := Analyze(s.recs, Options{Cores: 2}).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Analyze(s.recs, Options{Cores: 2}).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same records rendered different JSON:\n%s\nvs\n%s", a.String(), b.String())
	}
	if a.Len() == 0 {
		t.Fatal("empty JSON")
	}
}
