// Package replay folds a flight-record stream forward to materialize the
// machine's state at an arbitrary cycle: per-core transaction status and
// attempt number, per-line last-writer and reader sets, a signature
// occupancy estimate, and the governor's ladder level. It is the
// time-travel half of the query layer (internal/flightql): where the
// telemetry registry answers "how many, in total, by the end", replay
// answers "what did the machine look like at cycle N".
//
// The fold is purely offline and deterministic: the same records produce a
// byte-identical State. It reads only persisted data (a flight Snapshot or
// a serialized record stream) and touches nothing on the record hot path.
//
// A subset of the telemetry counters is derivable 1:1 from the flight
// stream — each increment site also writes exactly one flight record of a
// known kind on the same core (verified per site; see MirroredCounters).
// For those, replaying to the final cycle must reproduce the live
// registry's end-of-run values exactly; VerifyTelemetry pins that identity
// and the harness acceptance test enforces it per seed. Counters outside
// the set (e.g. cm-abort-enemy, whose flight records also cover commit-loop
// kills that the CM counter does not) are deliberately not mirrored.
package replay

import (
	"fmt"
	"sort"

	"flextm/internal/cst"
	"flextm/internal/flight"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// Status classifies a core's transaction engine at the replay cutoff.
type Status uint8

const (
	// Idle: no attempt open (never begun, or cleanly committed).
	Idle Status = iota
	// Running: an attempt is open (TxnBegin seen, no terminator yet).
	Running
	// Aborted: the last attempt aborted and the retry has not begun
	// (the post-abort back-off window).
	Aborted
	// Serialized: the core entered the serialized-irrevocable fallback and
	// has not committed out of it yet.
	Serialized
)

// String returns the status's stable name.
func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case Aborted:
		return "aborted"
	case Serialized:
		return "serialized"
	}
	return "idle"
}

// MarshalText makes Status render as its name in JSON.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// CoreState is one core's reconstructed state.
type CoreState struct {
	Core int `json:"core"`
	// Status at the cutoff cycle.
	Status Status `json:"status"`
	// Attempt is the ordinal of the current (or most recent) attempt:
	// the number of TxnBegin records folded so far.
	Attempt int `json:"attempt"`
	// ConsecAborts counts aborts since the last commit — the watchdog's
	// trip variable.
	ConsecAborts int `json:"consecAborts"`
	// SigLines estimates signature occupancy: distinct lines this core has
	// been recorded touching (conflicts, stalls, spills, alerts) inside the
	// open attempt. A lower bound — unconflicted accesses leave no record.
	SigLines int `json:"sigLines"`

	Commits     uint64 `json:"commits"`
	Aborts      uint64 `json:"aborts"`
	Escalations uint64 `json:"escalations"`
	Trips       uint64 `json:"trips"`
}

// LineState is one memory line's reconstructed conflict history.
type LineState struct {
	Line uint64 `json:"line"`
	// LastWriter is the core on the write side of the most recent conflict
	// naming the line (-1 when the line only ever appeared on read sides).
	LastWriter int `json:"lastWriter"`
	// Writers and Readers are the distinct cores ever seen on each side of
	// a conflict over the line, sorted ascending.
	Writers []int `json:"writers,omitempty"`
	Readers []int `json:"readers,omitempty"`
	// Conflicts counts CSTSet records naming the line.
	Conflicts uint64 `json:"conflicts"`
}

// State is the reconstructed machine state at a cycle.
type State struct {
	// Cycle is the requested cutoff; records with At > Cycle are not folded.
	Cycle sim.Time `json:"cycle"`
	// Seq is the highest record sequence number folded, Records the count.
	Seq     uint64 `json:"seq"`
	Records int    `json:"records"`

	Cores []CoreState `json:"cores"`
	// Lines holds every line named by a folded conflict record, sorted by
	// address.
	Lines []LineState `json:"lines,omitempty"`
	// GovLevel is the governor's mitigation-ladder level (the Aux of the
	// last GovStep folded; 0 when the run was ungoverned).
	GovLevel int `json:"govLevel"`

	counters [][telemetry.NumCounters]uint64
}

// MirroredCounters lists the telemetry counters whose end-of-run values are
// derivable 1:1 from the flight stream: every increment site in the
// simulator also records exactly one flight record of a fixed kind, so a
// full-stream replay must land on the live registry's numbers exactly.
var MirroredCounters = []telemetry.Counter{
	telemetry.CtrTxnCommits,      // TxnCommit
	telemetry.CtrTxnAborts,       // TxnAbort
	telemetry.CtrEscalation,      // Escalate
	telemetry.CtrWatchdogTrip,    // WatchdogTrip
	telemetry.CtrCMAbortSelf,     // AbortSelf
	telemetry.CtrCMWait,          // CMStall (count)
	telemetry.CtrCMWaitCycles,    // CMStall (sum of Dur)
	telemetry.CtrCMBackoffCycles, // Backoff (sum of Dur)
	telemetry.CtrCSTSet,          // CSTSet (+1 requestor, +1 responder)
	telemetry.CtrAlert,           // AOUAlert
	telemetry.CtrOTSpill,         // OTSpill
	telemetry.CtrCommitCSTFail,   // CommitRefused
	telemetry.CtrGovStep,         // GovStep
}

// Counter returns a mirrored counter's replayed value for one core. Zero
// for cores or counters the fold never touched.
func (s *State) Counter(core int, c telemetry.Counter) uint64 {
	if s == nil || core < 0 || core >= len(s.counters) {
		return 0
	}
	return s.counters[core][c]
}

// CounterTotal sums a mirrored counter across cores.
func (s *State) CounterTotal(c telemetry.Counter) uint64 {
	if s == nil {
		return 0
	}
	var t uint64
	for i := range s.counters {
		t += s.counters[i][c]
	}
	return t
}

// At folds records with At <= cycle, in Seq order, into a State. The input
// must be Seq-sorted (flight.Recorder.Snapshot's order); out-of-order input
// is sorted on a copy first, and records past cycle are dropped on a copy.
// cores sizes the per-core tables and is grown to cover any core a record
// names, folded or not.
func At(recs []flight.Rec, cores int, cycle sim.Time) *State {
	recs = bySeq(recs)
	f := flight.NewFold(recs, cores)
	if f.End > cycle {
		var kept []flight.Rec
		for _, r := range recs {
			if r.At <= cycle {
				kept = append(kept, r)
			}
		}
		f = flight.NewFold(kept, f.Cores)
	}
	st := fold(&f)
	st.Cycle = cycle
	return st
}

// Final folds the whole stream: the state at the last record's cycle.
func Final(recs []flight.Rec, cores int) *State {
	f := flight.NewFold(bySeq(recs), cores)
	st := fold(&f)
	st.Cycle = f.End
	return st
}

// bySeq returns recs in Seq order, sorting a copy when they are not.
func bySeq(recs []flight.Rec) []flight.Rec {
	if sort.SliceIsSorted(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq }) {
		return recs
	}
	sorted := append([]flight.Rec(nil), recs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Seq < sorted[b].Seq })
	return sorted
}

// fold runs the lifecycle fold to its end, mirroring the counters and
// tracking the line sets and per-core status on the way.
func fold(f *flight.Fold) *State {
	cores := f.Cores
	st := &State{
		Cores:    make([]CoreState, cores),
		counters: make([][telemetry.NumCounters]uint64, cores),
	}
	for i := range st.Cores {
		st.Cores[i].Core = i
	}
	type lineAcc struct {
		lastWriter       int
		writers, readers uint64 // core bitmasks: a machine has at most 64 cores
		conflicts        uint64
	}
	lines := map[uint64]*lineAcc{}
	lineOf := func(addr uint64) *lineAcc {
		la := lines[addr]
		if la == nil {
			la = &lineAcc{lastWriter: -1}
			lines[addr] = la
		}
		return la
	}
	// Distinct lines touched inside each core's open attempt.
	open := make([]map[uint64]bool, cores)
	touch := func(c int, addr uint64) {
		if addr == 0 {
			return
		}
		if open[c] == nil {
			open[c] = map[uint64]bool{}
		}
		open[c][addr] = true
	}

	for f.Next() {
		r := f.Rec
		c := int(r.Core)
		st.Records++
		if r.Seq > st.Seq {
			st.Seq = r.Seq
		}
		cs := &st.Cores[c]
		ctr := &st.counters[c]
		switch f.Event {
		case flight.Begin:
			cs.Attempt++
			if cs.Status != Serialized {
				cs.Status = Running
			}
			open[c] = nil
		case flight.Commit:
			ctr[telemetry.CtrTxnCommits]++
			cs.Commits++
			cs.Status = Idle
			open[c] = nil
		case flight.Abort:
			ctr[telemetry.CtrTxnAborts]++
			cs.Aborts++
			if cs.Status != Serialized {
				cs.Status = Aborted
			}
			open[c] = nil
		}
		switch r.Kind {
		case flight.Escalate:
			ctr[telemetry.CtrEscalation]++
			cs.Escalations++
			cs.Status = Serialized
		case flight.WatchdogTrip:
			ctr[telemetry.CtrWatchdogTrip]++
			cs.Trips++
		case flight.AbortSelf:
			ctr[telemetry.CtrCMAbortSelf]++
		case flight.CMStall:
			ctr[telemetry.CtrCMWait]++
			ctr[telemetry.CtrCMWaitCycles] += uint64(r.Dur)
			touch(c, uint64(r.Line))
		case flight.Backoff:
			ctr[telemetry.CtrCMBackoffCycles] += uint64(r.Dur)
		case flight.CSTSet:
			// The protocol increments the counter on both the requestor and
			// the responder; the single record carries both in Core/Peer.
			ctr[telemetry.CtrCSTSet]++
			p := int(r.Peer)
			if p >= 0 {
				st.counters[p][telemetry.CtrCSTSet]++
			}
			if addr := uint64(r.Line); addr != 0 {
				la := lineOf(addr)
				la.conflicts++
				// Aux's low bits carry the cst.Kind recorded in the
				// requestor's table: RW = requestor read / responder wrote,
				// WR = requestor wrote / responder read, WW = both wrote.
				// A peer of -1 shifts out of the masks.
				switch cst.Kind(r.Aux & flight.AuxMask) {
				case cst.RW:
					la.readers |= 1 << uint(c)
					if p >= 0 {
						la.writers |= 1 << uint(p)
						la.lastWriter = p
					}
				case cst.WR:
					la.writers |= 1 << uint(c)
					la.lastWriter = c
					la.readers |= 1 << uint(p)
				case cst.WW:
					la.writers |= 1<<uint(c) | 1<<uint(p)
					la.lastWriter = c
				}
				touch(c, addr)
				if p >= 0 {
					touch(p, addr)
				}
			}
		case flight.AOUAlert:
			ctr[telemetry.CtrAlert]++
		case flight.OTSpill:
			ctr[telemetry.CtrOTSpill]++
			touch(c, uint64(r.Line))
		case flight.CommitRefused:
			ctr[telemetry.CtrCommitCSTFail]++
		case flight.GovStep:
			ctr[telemetry.CtrGovStep]++
			st.GovLevel = int(r.Aux)
		}
	}

	for c := range open {
		st.Cores[c].SigLines = len(open[c])
		st.Cores[c].ConsecAborts = f.Run(c)
	}
	addrs := make([]uint64, 0, len(lines))
	for a := range lines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		la := lines[a]
		st.Lines = append(st.Lines, LineState{
			Line: a, LastWriter: la.lastWriter, Conflicts: la.conflicts,
			Writers: coreList(la.writers), Readers: coreList(la.readers),
		})
	}
	return st
}

// coreList returns the cores set in mask, ascending; nil when none.
func coreList(mask uint64) []int {
	var out []int
	for c := 0; mask != 0; c, mask = c+1, mask>>1 {
		if mask&1 != 0 {
			out = append(out, c)
		}
	}
	return out
}

// VerifyTelemetry checks the replay-identity invariant: every mirrored
// counter's replayed value equals the live registry's, per core, in the
// given end-of-run snapshot. A non-nil error names the first divergence.
// The identity holds only when the flight rings never wrapped (lost records
// are gone; the registry still counted them) — callers size the rings for
// the run, or check flight.Recorder.Overwritten() first.
func (s *State) VerifyTelemetry(snap telemetry.Snapshot) error {
	if s == nil {
		return fmt.Errorf("replay: nil state")
	}
	for c := range snap.Cores {
		for _, ctr := range MirroredCounters {
			want := snap.Cores[c].Counters[ctr]
			got := s.Counter(c, ctr)
			if got != want {
				return fmt.Errorf("replay: core %d counter %q: replayed %d, live telemetry %d",
					c, ctr.String(), got, want)
			}
		}
	}
	if extra := len(s.counters) - len(snap.Cores); extra > 0 {
		for c := len(snap.Cores); c < len(s.counters); c++ {
			for _, ctr := range MirroredCounters {
				if v := s.counters[c][ctr]; v != 0 {
					return fmt.Errorf("replay: core %d outside live snapshot has counter %q = %d",
						c, ctr.String(), v)
				}
			}
		}
	}
	return nil
}
