package causal

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"flextm/internal/flight"
)

// decodeChrome parses a trace_event document, failing the test if it is
// not valid JSON of that shape.
func decodeChrome(t *testing.T, b []byte) []ChromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid trace_event JSON: %v\n%s", err, b)
	}
	return doc.TraceEvents
}

// renderChrome renders rep and decodes the document.
func renderChrome(t *testing.T, rep *Report) []ChromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return decodeChrome(t, buf.Bytes())
}

// killChain is the shared render fixture: core 1 kills core 0 once, core 0
// retries to the last commit.
func killChain() *Report {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(10, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(20, 1, flight.AbortEnemy, 0, flight.AuxFP, 0x40, 0)
	s.add(25, 0, flight.TxnAbort, -1, 0, 0, 0)
	s.add(40, 1, flight.TxnCommit, -1, 0, 0, 0)
	s.add(60, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(100, 0, flight.TxnCommit, -1, 0, 0, 0)
	return Analyze(s.recs, Options{Cores: 2})
}

// TestWriteChromeCarriesStallDurations: Dur-bearing CMStall and Backoff
// flight records must fold into the rendered attempt spans — the stall
// cycles surface in the span's args and the timeline round-trips through
// EncodeChrome without losing the durations.
func TestWriteChromeCarriesStallDurations(t *testing.T) {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(10, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(15, 0, flight.CMStall, 1, 0, 0x40, 30)
	s.add(20, 1, flight.AbortEnemy, 0, 0, 0x40, 0)
	s.add(25, 0, flight.TxnAbort, -1, 0, 0, 0)
	s.add(30, 0, flight.Backoff, -1, 1, 0, 35)
	s.add(40, 1, flight.TxnCommit, -1, 0, 0, 0)
	s.add(70, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(100, 0, flight.TxnCommit, -1, 0, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 2})

	// The fold itself: the aborted attempt on core 0 carries both the stall
	// and the post-abort back-off (charged to the attempt it followed).
	if got := rep.PerCore[0][0].Stall; got != 30 {
		t.Fatalf("attempt stall = %d, want 30 (CMStall Dur)", got)
	}
	if got := rep.PerCore[0][0].Backoff; got != 35 {
		t.Fatalf("attempt backoff = %d, want 35 (Backoff Dur)", got)
	}

	var buf bytes.Buffer
	if err := rep.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeChrome(t, buf.Bytes())
	stallSeen := false
	for _, e := range doc {
		if e.Phase == "X" && e.Cat == "attempt" && e.TID == 0 && e.TS == 0 {
			if v, ok := e.Args["stall"].(float64); !ok || v != 30 {
				t.Fatalf("aborted span args = %+v, want stall 30", e.Args)
			}
			if e.Dur != 25 {
				t.Fatalf("aborted span dur = %v, want 25 (begin..abort)", e.Dur)
			}
			stallSeen = true
		}
	}
	if !stallSeen {
		t.Fatal("no attempt span carried the CM stall duration")
	}
	// Zero-width events (metadata) must stay dur-less rather than grow a
	// spurious "dur": 0.
	if strings.Contains(buf.String(), `"dur":0`) {
		t.Fatal("zero-width event carries a dur field")
	}
	// The document must round-trip through EncodeChrome byte-identically,
	// pinning the JSON schema of ChromeEvent.
	var second bytes.Buffer
	if err := EncodeChrome(&second, doc); err != nil {
		t.Fatal(err)
	}
	if buf.String() != second.String() {
		t.Fatal("causal chrome document not byte-stable through EncodeChrome")
	}
}

// TestChromeEventSchemaRoundTrip: a rendered document, with attempt spans,
// kill flow events and the critical-path row, must survive encode ->
// decode -> encode through ChromeEvent byte-identically, pinning the JSON
// schema.
func TestChromeEventSchemaRoundTrip(t *testing.T) {
	var first bytes.Buffer
	if err := killChain().WriteChrome(&first); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := EncodeChrome(&second, decodeChrome(t, first.Bytes())); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("round trip changed the document:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}
}

// TestChromeDurationEventsRoundTrip: duration-bearing "X" events must keep
// their dur through encode -> decode -> encode, and zero-dur instants must
// stay dur-less (omitempty) rather than grow a "dur": 0.
func TestChromeDurationEventsRoundTrip(t *testing.T) {
	events := []ChromeEvent{
		{Name: "cm-stall", Cat: "cm", Phase: "X", TS: 24, Dur: 30, PID: 1, TID: 0},
		{Name: "backoff", Cat: "cm", Phase: "X", TS: 40, Dur: 35, PID: 1, TID: 1},
		{Name: "decision", Cat: "cm", Phase: "i", TS: 25, PID: 1, TID: 0},
	}
	var first bytes.Buffer
	if err := EncodeChrome(&first, events); err != nil {
		t.Fatal(err)
	}
	durs := map[string]float64{}
	doc := decodeChrome(t, first.Bytes())
	for _, e := range doc {
		durs[e.Name] = e.Dur
	}
	if durs["cm-stall"] != 30 || durs["backoff"] != 35 || durs["decision"] != 0 {
		t.Fatalf("durations lost in transit: %+v", durs)
	}
	if strings.Contains(first.String(), `"name":"decision","cat":"cm","ph":"i","ts":25,"dur"`) {
		t.Fatal("zero-dur instant grew a dur field")
	}
	var second bytes.Buffer
	if err := EncodeChrome(&second, doc); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("duration events not byte-stable:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}
}

func TestWriteDOTMarksCriticalPath(t *testing.T) {
	var buf bytes.Buffer
	killChain().WriteDOT(&buf)
	dot := buf.String()
	for _, want := range []string{
		"digraph causal", "critical path", "color=red",
		"kill 0x40 (FP)", "style=dashed", "blame:",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestWriteChromeHasFlowAndPathTrack(t *testing.T) {
	var flowS, flowF, pathSegs int
	var sID, fID uint64
	for _, e := range renderChrome(t, killChain()) {
		switch {
		case e.Phase == "s" && e.Cat == "abort-lineage":
			flowS++
			sID = e.ID
			if e.TID != 1 || e.TS != 20 {
				t.Errorf("flow start = %+v, want killer tid 1 at ts 20", e)
			}
		case e.Phase == "f" && e.Cat == "abort-lineage":
			flowF++
			fID = e.ID
			if e.TID != 0 || e.TS != 25 || e.BP != "e" {
				t.Errorf("flow finish = %+v, want victim tid 0 at ts 25 with bp e", e)
			}
		case e.Phase == "X" && e.PID == 2:
			pathSegs++
		}
	}
	if flowS != 1 || flowF != 1 || sID != fID || sID == 0 {
		t.Fatalf("flow pair: %d starts, %d finishes, ids %d/%d", flowS, flowF, sID, fID)
	}
	if pathSegs == 0 {
		t.Fatal("no critical-path track segments (pid 2)")
	}
}

// TestWriteChromeTimelines renders small record windows and checks every
// attempt span (row, start, width, outcome and arguments), every kill
// arrow, and a named row per core plus the critical-path row.
func TestWriteChromeTimelines(t *testing.T) {
	type where struct {
		tid     int
		ts, dur float64
		name    string
	}
	type span struct {
		where
		args map[string]any // must hold these; a nil value must be absent
	}
	type kill struct {
		killer int
		at     float64
		victim int
		end    float64
	}
	cases := []struct {
		name  string
		cores int
		recs  func(s *stream)
		spans []span
		kills []kill
	}{{
		// Core 0 stalls, aborts unattributed, backs off and retries to a
		// commit while core 1 commits in the middle; core 2 stays idle.
		name: "interleaved retries", cores: 3,
		recs: func(s *stream) {
			s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
			s.add(5, 1, flight.TxnBegin, -1, 0, 0, 0)
			s.add(10, 0, flight.CMStall, 1, 0, 0x40, 15)
			s.add(30, 0, flight.TxnAbort, -1, 0, 0, 0)
			s.add(30, 0, flight.Backoff, -1, 1, 0, 20)
			s.add(40, 1, flight.TxnCommit, -1, 0, 0, 0)
			s.add(50, 0, flight.TxnBegin, -1, 0, 0, 0)
			s.add(90, 0, flight.TxnCommit, -1, 0, 0, 0)
		},
		spans: []span{
			{where{0, 0, 30, "abort"}, map[string]any{"stall": 15.0, "killer": nil}},
			{where{0, 50, 40, "commit"}, map[string]any{"stall": 0.0}},
			{where{1, 5, 35, "commit"}, nil},
		},
	}, {
		// The window ends inside core 0's attempt: it is drawn to the
		// window's end, not dropped.
		name: "open attempt", cores: 2,
		recs: func(s *stream) {
			s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
			s.add(100, 1, flight.TxnBegin, -1, 0, 0, 0)
			s.add(200, 1, flight.TxnCommit, -1, 0, 0, 0)
		},
		spans: []span{{where{0, 0, 200, "open"}, nil}, {where{1, 100, 100, "commit"}, nil}},
	}, {
		// A lazy commit-loop kill names only the victim core: it draws an
		// arrow like an eager verdict and blames the pair's last conflicting
		// line. A kill aimed at an attempt that already committed, and a
		// self-abort, draw none.
		name: "kill flows", cores: 3,
		recs: func(s *stream) {
			s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
			s.add(5, 1, flight.TxnBegin, -1, 0, 0, 0)
			s.add(10, 0, flight.CSTSet, 1, 0, 0x80, 0)
			s.add(30, 1, flight.AbortEnemy, 0, 0, 0, 0)
			s.add(32, 0, flight.TxnAbort, -1, 0, 0, 0)
			s.add(35, 1, flight.TxnCommit, -1, 0, 0, 0)
			s.add(40, 0, flight.AbortEnemy, 1, 0, 0, 0)
			s.add(50, 0, flight.TxnBegin, -1, 0, 0, 0)
			s.add(55, 2, flight.TxnBegin, -1, 0, 0, 0)
			s.add(60, 2, flight.AbortSelf, 0, 0, 0x40, 0)
			s.add(61, 2, flight.TxnAbort, -1, 0, 0, 0)
			s.add(70, 0, flight.TxnCommit, -1, 0, 0, 0)
		},
		spans: []span{
			{where{0, 0, 32, "abort"}, map[string]any{"line": "0x80", "killer": 1.0, "fp": false}},
			{where{0, 50, 20, "commit"}, nil},
			{where{1, 5, 30, "commit"}, nil},
			{where{2, 55, 6, "abort"}, map[string]any{"line": "0x40", "killer": 0.0}},
		},
		kills: []kill{{1, 30, 0, 32}},
	}, {
		// Ring wrap-around lost the begins of cores 1 and 2: their commit
		// and abort still get a span each, so spans = commits + aborts.
		name: "truncated window", cores: 4,
		recs: func(s *stream) {
			s.add(10, 1, flight.TxnCommit, -1, 0, 0, 0)
			s.add(12, 2, flight.TxnAbort, -1, 0, 0, 0)
			s.add(20, 0, flight.TxnBegin, -1, 0, 0, 0)
			s.add(28, 3, flight.TxnBegin, -1, 0, 0, 0)
			s.add(30, 0, flight.TxnCommit, -1, 0, 0, 0)
		},
		spans: []span{
			{where{1, 10, 0, "commit"}, nil},
			{where{2, 12, 0, "abort"}, nil},
			{where{0, 20, 10, "commit"}, nil},
			{where{3, 28, 2, "open"}, nil},
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s stream
			tc.recs(&s)
			evs := renderChrome(t, Analyze(s.recs, Options{Cores: tc.cores}))
			got := map[where]map[string]any{}
			names := map[[2]int]string{}
			starts := map[uint64]ChromeEvent{}
			var kills []kill
			for _, e := range evs {
				switch {
				case e.Phase == "X" && e.PID == 1:
					got[where{e.TID, e.TS, e.Dur, e.Name}] = e.Args
				case e.Phase == "M" && e.Name == "thread_name":
					names[[2]int{e.PID, e.TID}], _ = e.Args["name"].(string)
				case e.Phase == "s" && e.Name == "kill":
					starts[e.ID] = e
				}
			}
			for _, e := range evs {
				if st, ok := starts[e.ID]; ok && e.Phase == "f" && e.BP == "e" {
					kills = append(kills, kill{st.TID, st.TS, e.TID, e.TS})
				}
			}
			if len(got) != len(tc.spans) {
				t.Errorf("%d attempt spans, want %d: %v", len(got), len(tc.spans), got)
			}
			for _, w := range tc.spans {
				args, ok := got[w.where]
				if !ok {
					t.Errorf("missing %q span tid=%d ts=%v dur=%v in %v", w.name, w.tid, w.ts, w.dur, got)
					continue
				}
				for k, v := range w.args {
					if a, has := args[k]; a != v || (v == nil && has) {
						t.Errorf("%q span tid=%d ts=%v: arg %s = %v, want %v", w.name, w.tid, w.ts, k, a, v)
					}
				}
			}
			if len(kills) != len(starts) || !slices.Equal(kills, tc.kills) {
				t.Errorf("kill arrows %v (%d starts), want %v", kills, len(starts), tc.kills)
			}
			for c := 0; c < tc.cores; c++ {
				if names[[2]int{1, c}] == "" {
					t.Errorf("no thread_name for core %d", c)
				}
			}
			if names[[2]int{2, 0}] != "critical path" {
				t.Error("no critical-path row name")
			}
		})
	}
}

// TestWriteChromeEmpty: an empty window has no report; rendering it must
// still give a valid document with an empty event array.
func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Analyze(nil, Options{}).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != `{"traceEvents":[]}` {
		t.Fatalf("empty document = %s", got)
	}
}
