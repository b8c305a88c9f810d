package flight

import "flextm/internal/sim"

// Event is what one record does to the attempt lifecycle, as Fold reads it.
type Event uint8

const (
	NoEvent Event = iota // the record leaves the lifecycle as it was
	Begin                // a TxnBegin opened a new attempt on Core
	Commit               // Core's attempt committed
	Abort                // Core's attempt aborted
	Kill                 // an AbortEnemy or AbortSelf landed on Victim's open attempt
)

// attempt is Fold's per-core lifecycle state.
type attempt struct {
	n      int  // attempts numbered in the window, synthesized head included
	open   bool // an attempt is open
	begun  bool // the latest attempt's begin is inside the window
	killed bool // a kill already landed on the open attempt
	run    int  // consecutive aborts since the last commit
}

// Fold is the one attempt-lifecycle fold over a Seq-ordered record window
// (Recorder.Snapshot's order). Each Next applies one record and reports
// what it did, so an analyzer keeps only its own accumulators. Per-core
// state is allocated once, by NewFold; nothing is allocated per record.
//
//   - A begin opens a new attempt; Cut reports that the previous one was
//     still open (its terminator is missing from the window).
//   - A commit or abort closes the core's attempt.
//   - The kill rule: an AbortEnemy or AbortSelf lands only if it is the
//     first one aimed at the victim's open attempt. A CAS against a
//     finished or already killed attempt changes nothing.
//   - A truncated window lost the begin of a core's first attempt. A
//     commit or abort with no open attempt, and a kill or CM stall aimed at
//     a core the window has no history for yet, first synthesize that head
//     attempt (Synth), opened at the record's cycle.
type Fold struct {
	// Cores is the core count: the caller's, grown to cover every Core and
	// Peer the records name, and at least 1.
	Cores int
	// Start and End bound the window: the least and greatest record At.
	Start, End sim.Time

	// The current step, set by Next.
	Rec   *Rec
	Event Event
	// Victim is the core whose attempt the record acts on: Peer for an
	// AbortEnemy (-1 when it names no core), Core otherwise.
	Victim int
	// Killer is the core a kill record blames: Core for an AbortEnemy,
	// Peer for an AbortSelf; -1 otherwise.
	Killer int
	Synth  bool // a head attempt was synthesized on Victim first
	Cut    bool // a Begin found the previous attempt still open

	recs  []Rec
	i     int
	cores []attempt
}

// NewFold infers the core count (cores is a lower bound) and the window
// bounds of recs in one pass, and allocates the per-core state.
func NewFold(recs []Rec, cores int) Fold {
	f := Fold{recs: recs, Cores: max(cores, 1)}
	if len(recs) > 0 {
		f.Start, f.End = recs[0].At, recs[0].At
	}
	for _, r := range recs {
		f.Cores = max(f.Cores, int(r.Core)+1, int(r.Peer)+1)
		f.Start, f.End = min(f.Start, r.At), max(f.End, r.At)
	}
	f.cores = make([]attempt, f.Cores)
	return f
}

// Next applies the next record naming a valid core and reports whether
// there was one.
func (f *Fold) Next() bool {
	for f.i < len(f.recs) {
		r := &f.recs[f.i]
		f.i++
		if r.Core >= 0 {
			f.step(r)
			return true
		}
	}
	f.Rec = nil
	return false
}

func (f *Fold) step(r *Rec) {
	c := int(r.Core)
	f.Rec, f.Event, f.Victim, f.Killer, f.Synth, f.Cut = r, NoEvent, c, -1, false, false
	a := &f.cores[c]
	switch r.Kind {
	case TxnBegin:
		f.Event, f.Cut = Begin, a.open
		*a = attempt{n: a.n + 1, open: true, begun: true, run: a.run}
	case TxnCommit, TxnAbort:
		if !a.open {
			f.synth(a)
		}
		a.open, a.killed = false, false
		if r.Kind == TxnCommit {
			f.Event, a.run = Commit, 0
		} else {
			f.Event, a.run = Abort, a.run+1
		}
	case AbortEnemy, AbortSelf:
		f.Victim, f.Killer = int(r.Peer), c
		if r.Kind == AbortSelf {
			f.Victim, f.Killer = c, int(r.Peer)
		}
		if f.Victim < 0 {
			f.Victim = -1
			return
		}
		v := &f.cores[f.Victim]
		if !v.open && v.n == 0 {
			f.synth(v)
		}
		if v.open && !v.killed {
			v.killed, f.Event = true, Kill
		}
	case CMStall:
		if !a.open && a.n == 0 {
			f.synth(a)
		}
	}
}

func (f *Fold) synth(a *attempt) {
	f.Synth = true
	*a = attempt{n: a.n + 1, open: true, run: a.run}
}

// Open reports whether core c has an open attempt.
func (f *Fold) Open(c int) bool { return f.cores[c].open }

// Attempt returns the window ordinal of core c's latest attempt, counting
// a synthesized head attempt; -1 before its first.
func (f *Fold) Attempt(c int) int { return f.cores[c].n - 1 }

// Begun reports whether core c's latest attempt began inside the window
// rather than being a synthesized head attempt.
func (f *Fold) Begun(c int) bool { return f.cores[c].begun }

// Run returns core c's consecutive aborts since its last commit.
func (f *Fold) Run(c int) int { return f.cores[c].run }
