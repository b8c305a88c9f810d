package conflictgraph

import (
	"bytes"
	"strings"
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
	at   sim.Time
}

func (s *stream) add(core int, k flight.Kind, peer int, aux uint8, line memory.LineAddr) {
	s.at++
	s.recs = append(s.recs, flight.Rec{
		At: s.at, Line: line, Seq: uint64(len(s.recs) + 1),
		Core: int16(core), Peer: int16(peer), Kind: k, Aux: aux,
	})
}

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze(nil, Options{})
	if rep.Records != 0 || rep.Commits != 0 || rep.Aborts != 0 {
		t.Fatalf("empty analysis not empty: %+v", rep)
	}
	if len(rep.Pathologies) != 0 {
		t.Fatalf("pathologies on empty input: %+v", rep.Pathologies)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "none detected") {
		t.Fatalf("empty Print:\n%s", buf.String())
	}
}

// TestAbortCycleDetected models a classic dueling pair: cores 0 and 1
// repeatedly conflict on the same two lines and abort each other.
func TestAbortCycleDetected(t *testing.T) {
	var s stream
	for round := 0; round < 3; round++ {
		s.add(0, flight.TxnBegin, -1, 0, 0)
		s.add(1, flight.TxnBegin, -1, 0, 0)
		s.add(0, flight.CSTSet, 1, uint8(cst.WW), 0x40)
		s.add(1, flight.CSTSet, 0, uint8(cst.WW), 0x80)
		s.add(0, flight.AbortEnemy, 1, 0, 0)
		s.add(1, flight.TxnAbort, -1, 0, 0)
		s.add(1, flight.AbortEnemy, 0, 0, 0)
		s.add(0, flight.TxnAbort, -1, 0, 0)
	}
	rep := Analyze(s.recs, Options{Cores: 4})
	if !rep.Has(AbortCycle) {
		t.Fatalf("abort cycle not detected: %+v", rep.Pathologies)
	}
	var cyc *Pathology
	for i := range rep.Pathologies {
		if rep.Pathologies[i].Kind == AbortCycle {
			cyc = &rep.Pathologies[i]
		}
	}
	if len(cyc.Cores) != 2 || cyc.Cores[0] != 0 || cyc.Cores[1] != 1 {
		t.Fatalf("cycle cores = %v, want [0 1]", cyc.Cores)
	}
	if cyc.Count != 6 {
		t.Fatalf("cycle kill count = %d, want 6", cyc.Count)
	}
	if got := rep.PathologyCounts()[string(AbortCycle)]; got != 6 {
		t.Fatalf("PathologyCounts[abort-cycle] = %d, want 6", got)
	}
	// Both abort edges must be present.
	if len(rep.AbortEdges) != 2 {
		t.Fatalf("abort edges = %+v, want 2", rep.AbortEdges)
	}
	// No kill happened against a conflict-free attempt, so no friendly fire.
	if rep.Has(FriendlyFire) {
		t.Fatalf("spurious friendly fire: %+v", rep.Pathologies)
	}
}

// TestParallelKillEdgesDeduplicated: a duel whose kill CASes land twice
// against the same victim attempt (the second CAS finds the victim already
// dead — common when both lines of a two-line duel conflict in one window)
// must contribute ONE abort edge per attempt, not two, so the Tarjan cycle
// weight counts attempts killed rather than CAS attempts. A fresh attempt
// by the same victim makes the next kill count again.
func TestParallelKillEdgesDeduplicated(t *testing.T) {
	var s stream
	for round := 0; round < 3; round++ {
		s.add(0, flight.TxnBegin, -1, 0, 0)
		s.add(1, flight.TxnBegin, -1, 0, 0)
		s.add(0, flight.CSTSet, 1, uint8(cst.WW), 0x40)
		s.add(0, flight.CSTSet, 1, uint8(cst.WW), 0x80)
		// Both contended lines raise a kill against the same attempt.
		s.add(0, flight.AbortEnemy, 1, 0, 0x40)
		s.add(0, flight.AbortEnemy, 1, 0, 0x80)
		s.add(1, flight.TxnAbort, -1, 0, 0)
		s.add(1, flight.CSTSet, 0, uint8(cst.WW), 0x40)
		s.add(1, flight.AbortEnemy, 0, 0, 0x40)
		s.add(0, flight.TxnAbort, -1, 0, 0)
	}
	rep := Analyze(s.recs, Options{Cores: 4})
	if len(rep.AbortEdges) != 2 {
		t.Fatalf("abort edges = %+v, want 2", rep.AbortEdges)
	}
	for _, e := range rep.AbortEdges {
		if e.Kills != 3 {
			t.Fatalf("edge %d->%d kills = %d, want 3 (one per killed attempt, duplicates dropped): %+v",
				e.Killer, e.Victim, e.Kills, rep.AbortEdges)
		}
	}
	// The raw per-core kill counter still sees every CAS.
	if rep.PerCore[0].Kills != 6 {
		t.Fatalf("core 0 raw kills = %d, want 6", rep.PerCore[0].Kills)
	}
	// 3 deduplicated kills each way crosses the cycle threshold.
	if !rep.Has(AbortCycle) {
		t.Fatalf("abort cycle not detected after dedup: %+v", rep.Pathologies)
	}
	if got := rep.PathologyCounts()[string(AbortCycle)]; got != 6 {
		t.Fatalf("cycle kill count = %d, want 6 (deduplicated)", got)
	}
}

// TestCycleRequiresMinKills: a single reciprocal kill is contention, not
// livelock — it must stay below the CycleMinKills default of 2.
func TestCycleRequiresMinKills(t *testing.T) {
	var s stream
	s.add(0, flight.TxnBegin, -1, 0, 0)
	s.add(1, flight.TxnBegin, -1, 0, 0)
	s.add(0, flight.CSTSet, 1, uint8(cst.WW), 0x40)
	s.add(0, flight.AbortEnemy, 1, 0, 0)
	s.add(1, flight.TxnAbort, -1, 0, 0)
	s.add(1, flight.TxnBegin, -1, 0, 0)
	s.add(1, flight.CSTSet, 0, uint8(cst.WW), 0x40)
	s.add(1, flight.AbortEnemy, 0, 0, 0)
	s.add(0, flight.TxnAbort, -1, 0, 0)
	rep := Analyze(s.recs, Options{})
	if rep.Has(AbortCycle) {
		t.Fatalf("one reciprocal kill flagged as cycle: %+v", rep.Pathologies)
	}
	// Lowering the threshold to 1 must expose it.
	rep = Analyze(s.recs, Options{CycleMinKills: 1})
	if !rep.Has(AbortCycle) {
		t.Fatalf("cycle not found at CycleMinKills=1: %+v", rep.Pathologies)
	}
}

// TestStarvationChainDetected: core 2 keeps getting killed by cores 0 and 1
// while they commit.
func TestStarvationChainDetected(t *testing.T) {
	var s stream
	const runLen = 8
	for i := 0; i < runLen; i++ {
		killer := i % 2
		s.add(2, flight.TxnBegin, -1, 0, 0)
		s.add(killer, flight.TxnBegin, -1, 0, 0)
		s.add(2, flight.CSTSet, killer, uint8(cst.WR), 0x100)
		s.add(killer, flight.AbortEnemy, 2, 0, 0)
		s.add(2, flight.TxnAbort, -1, 0, 0)
		s.add(killer, flight.TxnCommit, -1, 0, 0)
	}
	rep := Analyze(s.recs, Options{Cores: 4})
	if !rep.Has(StarvationChain) {
		t.Fatalf("starvation not detected: %+v", rep.Pathologies)
	}
	var p *Pathology
	for i := range rep.Pathologies {
		if rep.Pathologies[i].Kind == StarvationChain {
			p = &rep.Pathologies[i]
		}
	}
	if p.Cores[0] != 2 {
		t.Fatalf("starved core = %v, want victim 2 first", p.Cores)
	}
	if p.Count != runLen {
		t.Fatalf("starvation run = %d, want %d", p.Count, runLen)
	}
	// Both killers appear in the detail.
	if !strings.Contains(p.Detail, "[0 1]") {
		t.Fatalf("killers missing from detail: %q", p.Detail)
	}
	if rep.PerCore[2].MaxAbortRun != runLen {
		t.Fatalf("MaxAbortRun = %d, want %d", rep.PerCore[2].MaxAbortRun, runLen)
	}
	// A commit interrupting the run resets the streak: no starvation when the
	// victim commits halfway.
	var s2 stream
	for i := 0; i < runLen; i++ {
		s2.add(2, flight.TxnBegin, -1, 0, 0)
		s2.add(2, flight.TxnAbort, -1, 0, 0)
		if i == runLen/2 {
			s2.add(2, flight.TxnBegin, -1, 0, 0)
			s2.add(2, flight.TxnCommit, -1, 0, 0)
		}
	}
	if rep := Analyze(s2.recs, Options{Cores: 4}); rep.Has(StarvationChain) {
		t.Fatalf("interrupted run flagged as starvation: %+v", rep.Pathologies)
	}
}

// TestFriendlyFireDetected: core 0 kills core 1 *after* core 1 began a fresh
// attempt with no recorded conflict — the CST bit named a predecessor.
func TestFriendlyFireDetected(t *testing.T) {
	var s stream
	// Attempt 1: a real conflict, killed legitimately.
	s.add(1, flight.TxnBegin, -1, 0, 0)
	s.add(1, flight.CSTSet, 0, uint8(cst.WR), 0x40)
	s.add(0, flight.AbortEnemy, 1, 0, 0)
	s.add(1, flight.TxnAbort, -1, 0, 0)
	// Attempt 2: no conflict recorded, yet core 0 kills again (stale CST).
	s.add(1, flight.TxnBegin, -1, 0, 0)
	s.add(0, flight.AbortEnemy, 1, 0, 0)
	s.add(1, flight.TxnAbort, -1, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 2})
	if !rep.Has(FriendlyFire) {
		t.Fatalf("friendly fire not detected: %+v", rep.Pathologies)
	}
	var p *Pathology
	for i := range rep.Pathologies {
		if rep.Pathologies[i].Kind == FriendlyFire {
			p = &rep.Pathologies[i]
		}
	}
	if p.Count != 1 {
		t.Fatalf("friendly-fire count = %d, want 1 (first kill was legitimate)", p.Count)
	}
	if len(p.Cores) != 2 || p.Cores[0] != 0 || p.Cores[1] != 1 {
		t.Fatalf("friendly-fire cores = %v, want [0 1]", p.Cores)
	}
}

// TestFriendlyFireNeedsBegin: on a truncated stream where the victim's Begin
// was overwritten, a kill without a recorded conflict must NOT be classified
// as friendly fire.
func TestFriendlyFireNeedsBegin(t *testing.T) {
	var s stream
	s.add(0, flight.AbortEnemy, 1, 0, 0)
	s.add(1, flight.TxnAbort, -1, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 2})
	if rep.Has(FriendlyFire) {
		t.Fatalf("truncated stream produced friendly fire: %+v", rep.Pathologies)
	}
}

func TestHotLinesRankedByAbortWeight(t *testing.T) {
	var s stream
	// Line 0x40 conflicts twice and both attempts die; 0x80 conflicts three
	// times but every attempt commits.
	for i := 0; i < 2; i++ {
		s.add(0, flight.TxnBegin, -1, 0, 0)
		s.add(0, flight.CSTSet, 1, uint8(cst.WW), 0x40)
		s.add(0, flight.TxnAbort, -1, 0, 0)
	}
	for i := 0; i < 3; i++ {
		s.add(2, flight.TxnBegin, -1, 0, 0)
		s.add(2, flight.CSTSet, 3, uint8(cst.RW), 0x80)
		s.add(2, flight.TxnCommit, -1, 0, 0)
	}
	s.add(0, flight.OTSpill, -1, 0, 0x40)
	rep := Analyze(s.recs, Options{Cores: 4})
	if len(rep.HotLines) != 2 {
		t.Fatalf("hot lines = %+v, want 2", rep.HotLines)
	}
	top := rep.HotLines[0]
	if top.Line != 0x40 || top.AbortWeight == 0 || !top.Spilled {
		t.Fatalf("top hot line = %+v, want spilled 0x40 with abort weight", top)
	}
	if rep.HotLines[1].Line != 0x80 || rep.HotLines[1].AbortWeight != 0 {
		t.Fatalf("second hot line = %+v, want 0x80 with zero abort weight", rep.HotLines[1])
	}
	if rep.HotLines[1].Conflicts != 3 {
		t.Fatalf("0x80 conflicts = %d, want 3", rep.HotLines[1].Conflicts)
	}
}

func TestConflictEdgeKinds(t *testing.T) {
	var s stream
	s.add(0, flight.CSTSet, 1, uint8(cst.RW), 0x40)
	s.add(0, flight.CSTSet, 1, uint8(cst.WR), 0x40)
	s.add(0, flight.CSTSet, 1, uint8(cst.WW), 0x40)
	s.add(0, flight.CSTSet, 1, uint8(cst.WW), 0x40)
	rep := Analyze(s.recs, Options{Cores: 2})
	if len(rep.Edges) != 1 {
		t.Fatalf("edges = %+v, want 1", rep.Edges)
	}
	e := rep.Edges[0]
	if e.From != 0 || e.To != 1 || e.RW != 1 || e.WR != 1 || e.WW != 2 || e.Total() != 4 {
		t.Fatalf("edge = %+v, want 0->1 rw1 wr1 ww2", e)
	}
}

func TestAnalyzeIsDeterministic(t *testing.T) {
	var s stream
	for i := 0; i < 50; i++ {
		c := i % 4
		s.add(c, flight.TxnBegin, -1, 0, 0)
		s.add(c, flight.CSTSet, (c+1)%4, uint8(cst.WW), memory.LineAddr(0x40*(i%5)))
		s.add((c+1)%4, flight.AbortEnemy, c, 0, 0)
		s.add(c, flight.TxnAbort, -1, 0, 0)
	}
	var a, b bytes.Buffer
	Analyze(s.recs, Options{Cores: 4}).Print(&a)
	Analyze(s.recs, Options{Cores: 4}).Print(&b)
	if a.String() != b.String() {
		t.Fatal("repeated analysis differs")
	}
}

func TestCoresInferredFromRecords(t *testing.T) {
	var s stream
	s.add(5, flight.TxnBegin, -1, 0, 0)
	s.add(5, flight.CSTSet, 7, uint8(cst.WW), 0x40)
	rep := Analyze(s.recs, Options{})
	if len(rep.PerCore) != 8 {
		t.Fatalf("inferred cores = %d, want 8 (max peer 7)", len(rep.PerCore))
	}
}

func TestWriteDOTMarksPathologies(t *testing.T) {
	var s stream
	for round := 0; round < 3; round++ {
		s.add(0, flight.TxnBegin, -1, 0, 0)
		s.add(1, flight.TxnBegin, -1, 0, 0)
		s.add(0, flight.CSTSet, 1, uint8(cst.WW), 0x40)
		s.add(0, flight.AbortEnemy, 1, 0, 0)
		s.add(1, flight.TxnAbort, -1, 0, 0)
		s.add(1, flight.AbortEnemy, 0, 0, 0)
		s.add(0, flight.TxnAbort, -1, 0, 0)
	}
	rep := Analyze(s.recs, Options{Cores: 2})
	var buf bytes.Buffer
	if err := rep.WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	dot := buf.String()
	if !strings.HasPrefix(dot, "digraph conflicts {") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Fatalf("malformed DOT:\n%s", dot)
	}
	if !strings.Contains(dot, "color=red, penwidth=2") {
		t.Fatalf("cycle cores not highlighted:\n%s", dot)
	}
	if !strings.Contains(dot, "color=gray") || !strings.Contains(dot, "kills") {
		t.Fatalf("edges missing:\n%s", dot)
	}
}

// TestKillLandsOnlyOnOpenAttempt: a kill CAS lands only if it is the first
// one aimed at the victim's open attempt (from any killer), or at a core
// the window has no history for yet. CASes against a finished or already
// killed attempt change nothing, so they add no abort edge and no
// friendly-fire verdict; the raw per-core counter still sees them.
func TestKillLandsOnlyOnOpenAttempt(t *testing.T) {
	var s stream
	// Core 1 has no history yet: its head attempt was truncated away, so
	// the kill lands on it.
	s.add(0, flight.AbortEnemy, 1, 0, 0)
	s.add(1, flight.TxnAbort, -1, 0, 0)
	// Core 1 is between attempts: both CASes hit a finished attempt.
	s.add(0, flight.AbortEnemy, 1, 0, 0)
	s.add(2, flight.AbortEnemy, 1, 0, 0)
	// A fresh attempt: core 2's kill lands first, core 0's is a no-op.
	s.add(1, flight.TxnBegin, -1, 0, 0)
	s.add(1, flight.CSTSet, 2, uint8(cst.WW), 0x40)
	s.add(2, flight.AbortEnemy, 1, 0, 0)
	s.add(0, flight.AbortEnemy, 1, 0, 0)
	s.add(1, flight.TxnAbort, -1, 0, 0)
	// A self-abort verdict closes the attempt to later kills too.
	s.add(1, flight.TxnBegin, -1, 0, 0)
	s.add(1, flight.AbortSelf, 0, 0, 0)
	s.add(0, flight.AbortEnemy, 1, 0, 0)
	s.add(1, flight.TxnAbort, -1, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 3})
	want := []AbortEdge{{Killer: 0, Victim: 1, Kills: 1}, {Killer: 2, Victim: 1, Kills: 1}}
	if len(rep.AbortEdges) != len(want) {
		t.Fatalf("abort edges = %+v, want %+v", rep.AbortEdges, want)
	}
	for i := range want {
		if rep.AbortEdges[i] != want[i] {
			t.Fatalf("abort edges = %+v, want %+v", rep.AbortEdges, want)
		}
	}
	if rep.Has(FriendlyFire) {
		t.Fatalf("a kill that did not land was judged friendly fire: %+v", rep.Pathologies)
	}
	if rep.PerCore[0].Kills != 4 || rep.PerCore[2].Kills != 2 {
		t.Fatalf("raw kills = %d/%d, want 4/2", rep.PerCore[0].Kills, rep.PerCore[2].Kills)
	}
}

// TestStarvationReportsLongestRun: the verdict describes the longest run
// and the killers whose kills landed during that run, not whatever run is
// in progress when the stream ends.
func TestStarvationReportsLongestRun(t *testing.T) {
	var s stream
	run := func(killer, n int) {
		for i := 0; i < n; i++ {
			s.add(2, flight.TxnBegin, -1, 0, 0)
			s.add(2, flight.CSTSet, killer, uint8(cst.WR), 0x100)
			s.add(killer, flight.AbortEnemy, 2, 0, 0)
			s.add(2, flight.TxnAbort, -1, 0, 0)
		}
		s.add(2, flight.TxnBegin, -1, 0, 0)
		s.add(2, flight.TxnCommit, -1, 0, 0)
	}
	run(0, 12)
	run(3, 8)
	run(1, 1)
	rep := Analyze(s.recs, Options{Cores: 4})
	var chains []Pathology
	for _, p := range rep.Pathologies {
		if p.Kind == StarvationChain {
			chains = append(chains, p)
		}
	}
	if len(chains) != 1 {
		t.Fatalf("starvation verdicts = %+v, want one", chains)
	}
	p := chains[0]
	if p.Count != 12 || uint64(rep.PerCore[2].MaxAbortRun) != p.Count {
		t.Fatalf("count = %d, MaxAbortRun = %d, want both 12", p.Count, rep.PerCore[2].MaxAbortRun)
	}
	if len(p.Cores) != 2 || p.Cores[0] != 2 || p.Cores[1] != 0 {
		t.Fatalf("cores = %v, want victim 2 then killer 0 of the longest run", p.Cores)
	}
	if !strings.Contains(p.Detail, "killers [0]") {
		t.Fatalf("detail names the wrong killers: %q", p.Detail)
	}
}
