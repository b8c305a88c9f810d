package flight

import (
	"testing"

	"flextm/internal/sim"
)

// foldStream builds a Seq-ordered record slice, one cycle per record.
type foldStream []Rec

func (s *foldStream) add(core int, k Kind, peer int) {
	*s = append(*s, Rec{
		At: sim.Time(10 + len(*s)), Seq: uint64(len(*s) + 1),
		Core: int16(core), Peer: int16(peer), Kind: k,
	})
}

// step is what one Next reported, for table comparison.
type step struct {
	Event          Event
	Victim, Killer int
	Synth, Cut     bool
}

func foldSteps(recs []Rec, cores int) (Fold, []step) {
	f := NewFold(recs, cores)
	var out []step
	for f.Next() {
		out = append(out, step{f.Event, f.Victim, f.Killer, f.Synth, f.Cut})
	}
	return f, out
}

// TestFoldLifecycleAndKillRule walks a truncated two-core window through
// every lifecycle rule: head synthesis, the kill rule, missing terminators
// and the consecutive-abort run.
func TestFoldLifecycleAndKillRule(t *testing.T) {
	var s foldStream
	s.add(0, AbortEnemy, 1) // core 1 has no history: synthesize its head, land
	s.add(0, AbortEnemy, 1) // same attempt already killed: no-op
	s.add(1, TxnAbort, -1)
	s.add(0, AbortEnemy, 1) // core 1 between attempts: no-op, no synthesis
	s.add(1, TxnBegin, -1)
	s.add(1, AbortSelf, 0)  // the verdict lands on core 1's own attempt
	s.add(0, AbortEnemy, 1) // already killed: no-op
	s.add(1, TxnAbort, -1)
	s.add(0, TxnCommit, -1) // core 0's head attempt closes on its commit
	s.add(1, TxnBegin, -1)
	s.add(1, TxnBegin, -1) // terminator lost: the previous attempt is cut
	s.add(0, CMStall, 1)   // core 0 has history: a stall opens nothing
	f, got := foldSteps(s, 0)
	want := []step{
		{Kill, 1, 0, true, false},
		{NoEvent, 1, 0, false, false},
		{Abort, 1, -1, false, false},
		{NoEvent, 1, 0, false, false},
		{Begin, 1, -1, false, false},
		{Kill, 1, 0, false, false},
		{NoEvent, 1, 0, false, false},
		{Abort, 1, -1, false, false},
		{Commit, 0, -1, true, false},
		{Begin, 1, -1, false, false},
		{Begin, 1, -1, false, true},
		{NoEvent, 0, -1, false, false},
	}
	if len(got) != len(want) {
		t.Fatalf("%d steps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d (%v): step %+v, want %+v", i, s[i].Kind, got[i], want[i])
		}
	}
	if f.Cores != 2 || f.Start != 10 || f.End != sim.Time(10+len(s)-1) {
		t.Fatalf("cores %d, window [%d,%d]", f.Cores, f.Start, f.End)
	}
	// Core 1: synthesized head + three begins; core 0: its synthesized head.
	if f.Attempt(1) != 3 || f.Attempt(0) != 0 {
		t.Fatalf("attempt ordinals = %d/%d, want 0/3", f.Attempt(0), f.Attempt(1))
	}
	if !f.Open(1) || f.Open(0) || !f.Begun(1) || f.Begun(0) {
		t.Fatalf("open %v/%v begun %v/%v", f.Open(0), f.Open(1), f.Begun(0), f.Begun(1))
	}
	if f.Run(1) != 2 || f.Run(0) != 0 {
		t.Fatalf("consecutive aborts = %d/%d, want 0/2", f.Run(0), f.Run(1))
	}
}

// TestFoldStallOpensHeadAttempt: a CM stall is proof of an open attempt on
// a core the window has no history for, so a later kill lands on it.
func TestFoldStallOpensHeadAttempt(t *testing.T) {
	var s foldStream
	s.add(2, CMStall, 0)
	s.add(0, AbortEnemy, 2)
	_, got := foldSteps(s, 0)
	want := []step{{NoEvent, 2, -1, true, false}, {Kill, 2, 0, false, false}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: step %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFoldCoresAndInvalidRecords: the caller's core count is a lower bound,
// records naming no valid core are skipped but still bound the window, and
// a kill naming no victim reports Victim -1.
func TestFoldCoresAndInvalidRecords(t *testing.T) {
	if f := NewFold(nil, 0); f.Cores != 1 || f.Next() {
		t.Fatalf("empty fold: cores %d", f.Cores)
	}
	recs := []Rec{
		{At: 5, Seq: 1, Core: -1, Peer: -1, Kind: TxnBegin},
		{At: 7, Seq: 2, Core: 0, Peer: -1, Kind: AbortEnemy},
		{At: 6, Seq: 3, Core: 0, Peer: 5, Kind: CSTSet},
	}
	f := NewFold(recs, 4)
	if f.Cores != 6 || f.Start != 5 || f.End != 7 {
		t.Fatalf("cores %d, window [%d,%d], want 6 [5,7]", f.Cores, f.Start, f.End)
	}
	var seqs []uint64
	for f.Next() {
		seqs = append(seqs, f.Rec.Seq)
		if f.Rec.Kind == AbortEnemy && (f.Victim != -1 || f.Event != NoEvent) {
			t.Fatalf("victimless kill: victim %d event %v", f.Victim, f.Event)
		}
	}
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 3 {
		t.Fatalf("folded seqs %v, want [2 3]", seqs)
	}
}

func TestParseKind(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("no-such-kind"); ok {
		t.Fatal("unknown name parsed")
	}
}
