// Package conflictgraph turns a flight-recorder dump (internal/flight)
// into an explanation of contention: the directed conflict graph between
// cores over the recorded interval, the abort graph (who killed whom), a
// hot-line ranking weighted by the aborts each line contributed to, and a
// classification of the contention pathologies the TM literature uses to
// explain eager-vs-lazy behavior:
//
//   - Starvation chains: one core aborts many times in a row while the
//     cores killing it make progress.
//   - Livelock / dueling-abort cycles: a cycle in the abort graph (A keeps
//     aborting B while B keeps aborting A, possibly through intermediates),
//     the classic eager-mode pathology on RandomGraph-like workloads.
//   - Friendly fire: a committer (lazy mode) or eager winner aborts a
//     transaction whose current attempt never conflicted with it — the
//     CST bit named a conflicting *predecessor* on the same core, and an
//     innocent successor was killed. FlexTM's signature screen exists
//     precisely to suppress these.
//
// The analyzer is offline and allocation-relaxed: it runs on demand
// (`flextm -profile`), on a watchdog trip, or after a chaos-campaign
// violation, never on the simulated fast path.
package conflictgraph

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"flextm/internal/cst"
	"flextm/internal/flight"
	"flextm/internal/sim"
)

// Options tune the analysis thresholds.
type Options struct {
	// Cores is the machine's core count, grown to cover every core the
	// records name; 0 infers it from the records.
	Cores int
	// StarvationRun is the consecutive-abort run length on one core that
	// qualifies as starvation. <=0 selects 8.
	StarvationRun int
	// CycleMinKills is the per-edge kill count below which an abort edge is
	// ignored when searching for dueling cycles. <=0 selects 2.
	CycleMinKills uint64
	// TopLines caps the hot-line ranking. <=0 selects 10.
	TopLines int
}

func (o Options) withDefaults() Options {
	if o.StarvationRun <= 0 {
		o.StarvationRun = 8
	}
	if o.CycleMinKills == 0 {
		o.CycleMinKills = 2
	}
	if o.TopLines <= 0 {
		o.TopLines = 10
	}
	return o
}

// ConflictEdge is one directed edge of the conflict graph: requestor ->
// responder, with per-CST-kind counts (the kind as set in the requestor's
// table: R-W means "my read hit their write", etc.).
type ConflictEdge struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	RW   uint64 `json:"rw"`
	WR   uint64 `json:"wr"`
	WW   uint64 `json:"ww"`
}

// Total returns the edge's conflict count across kinds.
func (e ConflictEdge) Total() uint64 { return e.RW + e.WR + e.WW }

// AbortEdge is one directed edge of the abort graph: killer -> victim.
type AbortEdge struct {
	Killer int    `json:"killer"`
	Victim int    `json:"victim"`
	Kills  uint64 `json:"kills"`
}

// HotLine is one cache line ranked by the contention it caused. Spilled
// marks lines that left the L1 through the overflow table, attributing the
// conflict through Wsig/OT provenance rather than cache residency.
type HotLine struct {
	Line        uint64 `json:"line"`
	Conflicts   uint64 `json:"conflicts"`
	AbortWeight uint64 `json:"abortWeight"`
	Spilled     bool   `json:"spilled,omitempty"`
}

// PathologyKind names one detected contention pathology.
type PathologyKind string

// The detected pathology classes.
const (
	StarvationChain PathologyKind = "starvation-chain"
	AbortCycle      PathologyKind = "abort-cycle"
	FriendlyFire    PathologyKind = "friendly-fire"
)

// Pathology is one detected instance.
type Pathology struct {
	Kind   PathologyKind `json:"kind"`
	Cores  []int         `json:"cores"`
	Count  uint64        `json:"count"`
	Detail string        `json:"detail"`
}

// CoreStats summarizes one core's recorded activity.
type CoreStats struct {
	Core         int    `json:"core"`
	Commits      uint64 `json:"commits"`
	Aborts       uint64 `json:"aborts"`
	Kills        uint64 `json:"kills"` // enemies this core aborted
	Alerts       uint64 `json:"alerts"`
	Spills       uint64 `json:"spills"`
	Refusals     uint64 `json:"commitRefusals"`
	MaxAbortRun  int    `json:"maxAbortRun"`
	WatchdogTrip uint64 `json:"watchdogTrips"`
	Escalations  uint64 `json:"escalations"`
}

// Report is the full analysis of one recorded interval.
type Report struct {
	Start       sim.Time       `json:"start"`
	End         sim.Time       `json:"end"`
	Records     int            `json:"records"`
	Overwritten uint64         `json:"overwritten,omitempty"`
	Commits     uint64         `json:"commits"`
	Aborts      uint64         `json:"aborts"`
	PerCore     []CoreStats    `json:"perCore"`
	Edges       []ConflictEdge `json:"conflictEdges"`
	AbortEdges  []AbortEdge    `json:"abortEdges"`
	HotLines    []HotLine      `json:"hotLines"`
	Pathologies []Pathology    `json:"pathologies"`
}

// PathologyCounts returns the per-kind instance totals (the bench-artifact
// summary form).
func (r *Report) PathologyCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, p := range r.Pathologies {
		out[string(p.Kind)] += p.Count
	}
	return out
}

// Has reports whether any pathology of the given kind was detected.
func (r *Report) Has(k PathologyKind) bool {
	for _, p := range r.Pathologies {
		if p.Kind == k {
			return true
		}
	}
	return false
}

// Analyze reconstructs the conflict graph from a record stream (as returned
// by Recorder.Snapshot: ordered by Seq) and classifies its pathologies.
func Analyze(recs []flight.Rec, opts Options) *Report {
	opts = opts.withDefaults()
	f := flight.NewFold(recs, opts.Cores)
	n := f.Cores
	rep := &Report{Start: f.Start, End: f.End, Records: len(recs)}

	stats := make([]CoreStats, n)
	for i := range stats {
		stats[i].Core = i
	}

	type lineInfo struct {
		conflicts   uint64
		abortWeight uint64
		spilled     bool
	}
	lines := map[uint64]*lineInfo{}
	lineOf := func(l uint64) *lineInfo {
		li := lines[l]
		if li == nil {
			li = &lineInfo{}
			lines[l] = li
		}
		return li
	}

	edges := map[[2]int]*ConflictEdge{}
	kills := map[[2]int]uint64{}
	friendly := map[[2]int]uint64{}

	// Per-core accumulators for the current attempt, read with the fold's
	// lifecycle (internal/flight): conflicted is the bitmask of peers the
	// core has a recorded conflict with in its *current* attempt, touched
	// the conflicting lines of that attempt (each charged one abort-weight
	// if the attempt dies).
	type coreAcc struct {
		conflicted uint64
		touched    []uint64
		runKillers uint64 // killers whose kills landed during the current abort run
		starvedBy  uint64 // runKillers of the longest run so far
	}
	acc := make([]coreAcc, n)

	for f.Next() {
		r := f.Rec
		c := int(r.Core)
		a := &acc[c]
		switch f.Event {
		case flight.Commit:
			stats[c].Commits++
			rep.Commits++
			a.runKillers = 0
		case flight.Abort:
			stats[c].Aborts++
			rep.Aborts++
			for _, l := range a.touched {
				lineOf(l).abortWeight++
			}
			if run := f.Run(c); run > stats[c].MaxAbortRun {
				stats[c].MaxAbortRun = run
				a.starvedBy = a.runKillers
			}
		case flight.Kill:
			if r.Kind != flight.AbortEnemy {
				break
			}
			v := &acc[f.Victim]
			kills[[2]int{c, f.Victim}]++
			v.runKillers |= 1 << uint(c)
			// Friendly fire: the victim's current attempt has no recorded
			// conflict with the killer — the CST bit that motivated this
			// kill belonged to a finished predecessor on the same core.
			// Only judged when that attempt began inside the window.
			if f.Begun(f.Victim) && v.conflicted&(1<<uint(c)) == 0 {
				friendly[[2]int{c, f.Victim}]++
			}
		}
		if f.Event == flight.Begin || f.Event == flight.Commit || f.Event == flight.Abort {
			a.conflicted = 0
			a.touched = a.touched[:0]
		}
		switch r.Kind {
		case flight.AbortEnemy:
			if f.Victim >= 0 {
				stats[c].Kills++
			}
		case flight.CSTSet:
			p := int(r.Peer)
			if p < 0 {
				continue
			}
			e := edges[[2]int{c, p}]
			if e == nil {
				e = &ConflictEdge{From: c, To: p}
				edges[[2]int{c, p}] = e
			}
			switch cst.Kind(r.Aux & flight.AuxMask) {
			case cst.RW:
				e.RW++
			case cst.WR:
				e.WR++
			case cst.WW:
				e.WW++
			}
			a.conflicted |= 1 << uint(p)
			acc[p].conflicted |= 1 << uint(c)
			li := lineOf(uint64(r.Line))
			li.conflicts++
			a.touched = append(a.touched, uint64(r.Line))
			acc[p].touched = append(acc[p].touched, uint64(r.Line))
		case flight.AOUAlert:
			stats[c].Alerts++
		case flight.OTSpill:
			stats[c].Spills++
			lineOf(uint64(r.Line)).spilled = true
		case flight.CommitRefused:
			stats[c].Refusals++
		case flight.WatchdogTrip:
			stats[c].WatchdogTrip++
		case flight.Escalate:
			stats[c].Escalations++
		}
	}
	rep.PerCore = stats

	// Freeze the graphs in deterministic order.
	for _, e := range edges {
		rep.Edges = append(rep.Edges, *e)
	}
	slices.SortFunc(rep.Edges, func(a, b ConflictEdge) int {
		return cmp.Or(cmp.Compare(b.Total(), a.Total()), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	for k, c := range kills {
		rep.AbortEdges = append(rep.AbortEdges, AbortEdge{Killer: k[0], Victim: k[1], Kills: c})
	}
	slices.SortFunc(rep.AbortEdges, func(a, b AbortEdge) int {
		return cmp.Or(cmp.Compare(b.Kills, a.Kills), cmp.Compare(a.Killer, b.Killer), cmp.Compare(a.Victim, b.Victim))
	})

	// Hot lines: rank by abort-weight, then conflict count.
	for l, li := range lines {
		if li.conflicts == 0 && li.abortWeight == 0 {
			continue
		}
		rep.HotLines = append(rep.HotLines, HotLine{
			Line: l, Conflicts: li.conflicts, AbortWeight: li.abortWeight, Spilled: li.spilled,
		})
	}
	slices.SortFunc(rep.HotLines, func(a, b HotLine) int {
		return cmp.Or(cmp.Compare(b.AbortWeight, a.AbortWeight), cmp.Compare(b.Conflicts, a.Conflicts), cmp.Compare(a.Line, b.Line))
	})
	if len(rep.HotLines) > opts.TopLines {
		rep.HotLines = rep.HotLines[:opts.TopLines]
	}

	rep.Pathologies = append(rep.Pathologies, cyclePathologies(rep.AbortEdges, n, opts.CycleMinKills)...)
	// Starvation: report each starved core's longest run, with the
	// killers whose kills landed during that run.
	for c := range stats {
		run := stats[c].MaxAbortRun
		if run < opts.StarvationRun {
			continue
		}
		var killers []int
		for k := 0; k < n; k++ {
			if acc[c].starvedBy&(1<<uint(k)) != 0 {
				killers = append(killers, k)
			}
		}
		rep.Pathologies = append(rep.Pathologies, Pathology{
			Kind: StarvationChain, Cores: append([]int{c}, killers...), Count: uint64(run),
			Detail: fmt.Sprintf("core %d aborted %d times in a row (killers %v, %d commits in the window)",
				c, run, killers, stats[c].Commits),
		})
	}
	// Friendly fire, per killer->victim pair.
	var ffPairs [][2]int
	for k := range friendly {
		ffPairs = append(ffPairs, k)
	}
	slices.SortFunc(ffPairs, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, k := range ffPairs {
		rep.Pathologies = append(rep.Pathologies, Pathology{
			Kind: FriendlyFire, Cores: []int{k[0], k[1]}, Count: friendly[k],
			Detail: fmt.Sprintf("core %d aborted core %d %d time(s) with no conflict in the victim's current attempt",
				k[0], k[1], friendly[k]),
		})
	}
	return rep
}

// cyclePathologies finds strongly connected components of the abort graph
// restricted to edges with at least minKills kills; every non-trivial SCC
// (or reciprocal pair) is a dueling-abort cycle.
func cyclePathologies(edges []AbortEdge, n int, minKills uint64) []Pathology {
	adj := make([][]int, n)
	weight := map[[2]int]uint64{}
	for _, e := range edges {
		if e.Kills < minKills {
			continue
		}
		adj[e.Killer] = append(adj[e.Killer], e.Victim)
		weight[[2]int{e.Killer, e.Victim}] = e.Kills
	}

	// Tarjan's SCC (recursion depth is bounded by the core count, <= 64).
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var sccStack []int
	next := 0
	var sccs [][]int

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v], low[v] = next, next
		next++
		sccStack = append(sccStack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := sccStack[len(sccStack)-1]
				sccStack = sccStack[:len(sccStack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 && len(adj[v]) > 0 {
			strongconnect(v)
		}
	}

	var out []Pathology
	for _, comp := range sccs {
		if len(comp) < 2 {
			continue
		}
		sort.Ints(comp)
		in := map[int]bool{}
		for _, c := range comp {
			in[c] = true
		}
		var total uint64
		for k, w := range weight {
			if in[k[0]] && in[k[1]] {
				total += w
			}
		}
		out = append(out, Pathology{
			Kind: AbortCycle, Cores: comp, Count: total,
			Detail: fmt.Sprintf("cores %v abort each other in a cycle (%d kills inside the cycle)", comp, total),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// Print writes the human-readable profile (the body of `flextm -profile`).
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "interval [%d, %d] cycles, %d records", r.Start, r.End, r.Records)
	if r.Overwritten > 0 {
		fmt.Fprintf(w, " (+%d overwritten: oldest history lost)", r.Overwritten)
	}
	fmt.Fprintf(w, "\ncommits %d, aborts %d\n", r.Commits, r.Aborts)

	any := false
	for _, cs := range r.PerCore {
		if cs.Commits+cs.Aborts+cs.Kills+cs.Alerts+cs.Spills+cs.Refusals+cs.WatchdogTrip == 0 {
			continue
		}
		if !any {
			fmt.Fprintf(w, "%4s %8s %7s %6s %7s %7s %8s %7s\n",
				"core", "commits", "aborts", "kills", "alerts", "spills", "refusals", "maxrun")
			any = true
		}
		fmt.Fprintf(w, "%4d %8d %7d %6d %7d %7d %8d %7d\n",
			cs.Core, cs.Commits, cs.Aborts, cs.Kills, cs.Alerts, cs.Spills, cs.Refusals, cs.MaxAbortRun)
	}

	if len(r.Edges) > 0 {
		fmt.Fprintln(w, "conflict edges (requestor -> responder, by CST kind):")
		for _, e := range r.Edges {
			fmt.Fprintf(w, "  %2d -> %-2d  R-W=%-5d W-R=%-5d W-W=%-5d\n", e.From, e.To, e.RW, e.WR, e.WW)
		}
	}
	if len(r.AbortEdges) > 0 {
		fmt.Fprintln(w, "abort edges (killer -> victim):")
		for _, e := range r.AbortEdges {
			fmt.Fprintf(w, "  %2d -> %-2d  kills=%d\n", e.Killer, e.Victim, e.Kills)
		}
	}
	if len(r.HotLines) > 0 {
		fmt.Fprintln(w, "hot lines (by abort-weight):")
		for _, h := range r.HotLines {
			tag := ""
			if h.Spilled {
				tag = "  [OT-spilled]"
			}
			fmt.Fprintf(w, "  line %#x  conflicts=%-5d abort-weight=%d%s\n",
				h.Line, h.Conflicts, h.AbortWeight, tag)
		}
	}
	if len(r.Pathologies) == 0 {
		fmt.Fprintln(w, "pathologies: none detected")
		return
	}
	fmt.Fprintln(w, "pathologies:")
	for _, p := range r.Pathologies {
		fmt.Fprintf(w, "  [%s] %s\n", p.Kind, p.Detail)
	}
}

// WriteDOT renders the graphs in Graphviz DOT: gray edges are CST
// conflicts (labeled with per-kind counts), red edges are kills. Cores in a
// detected abort cycle are drawn red; starved cores orange.
func (r *Report) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph conflicts {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=circle];")
	inCycle := map[int]bool{}
	starved := map[int]bool{}
	for _, p := range r.Pathologies {
		switch p.Kind {
		case AbortCycle:
			for _, c := range p.Cores {
				inCycle[c] = true
			}
		case StarvationChain:
			if len(p.Cores) > 0 {
				starved[p.Cores[0]] = true
			}
		}
	}
	for _, cs := range r.PerCore {
		if cs.Commits+cs.Aborts+cs.Kills == 0 {
			continue
		}
		attr := ""
		switch {
		case inCycle[cs.Core]:
			attr = ", color=red, penwidth=2"
		case starved[cs.Core]:
			attr = ", color=orange, penwidth=2"
		}
		fmt.Fprintf(w, "  c%d [label=\"core %d\\n%dc/%da\"%s];\n",
			cs.Core, cs.Core, cs.Commits, cs.Aborts, attr)
	}
	for _, e := range r.Edges {
		fmt.Fprintf(w, "  c%d -> c%d [color=gray, label=\"rw%d wr%d ww%d\"];\n",
			e.From, e.To, e.RW, e.WR, e.WW)
	}
	for _, e := range r.AbortEdges {
		fmt.Fprintf(w, "  c%d -> c%d [color=red, label=\"%d kills\"];\n",
			e.Killer, e.Victim, e.Kills)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
