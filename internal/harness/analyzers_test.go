package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flextm/internal/causal"
	"flextm/internal/conflictgraph"
	"flextm/internal/flight"
	"flextm/internal/replay"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// analyzerStream is one fixed flight-record window the three offline
// analyzers (conflictgraph, causal, replay) are checked over.
type analyzerStream struct {
	name  string
	recs  []flight.Rec
	cores int
	lost  uint64 // records the window lost to ring wrap-around
}

// contendedStream records a contended FlexTM run on LFUCache. perCore is
// the flight ring depth: 512 wraps the rings, 1<<17 keeps the whole run.
func contendedStream(t *testing.T, system SystemName, perCore int) analyzerStream {
	t.Helper()
	f, ok := workloads.ByName("LFUCache")
	if !ok {
		t.Fatal("LFUCache workload missing")
	}
	res, err := Run(RunConfig{
		System: system, Workload: f, Threads: 8, OpsPerThread: 40,
		Machine: tmesi.DefaultConfig(), Flight: true, FlightPerCore: perCore,
	})
	if err != nil {
		t.Fatalf("%s: %v", system, err)
	}
	return analyzerStream{
		name:  string(system),
		recs:  res.Flight.Snapshot(),
		cores: tmesi.DefaultConfig().Cores,
		lost:  res.Flight.Overwritten(),
	}
}

// livelockStream is the ungoverned livelock probe's watchdog dump.
func livelockStream(t *testing.T) analyzerStream {
	t.Helper()
	_, out, err := LivelockProbe(1)
	if err != nil {
		t.Fatal(err)
	}
	return analyzerStream{name: "livelock", recs: out.Recs, cores: 2}
}

// analyzerJSON renders the three analyzers' outputs over one window as
// canonical indented JSON, keyed by the golden file suffix.
func analyzerJSON(t *testing.T, s analyzerStream) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	enc := func(key string, v any) {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("%s %s: %v", s.name, key, err)
		}
		out[key] = append(b, '\n')
	}
	enc("conflictgraph", conflictgraph.Analyze(s.recs, conflictgraph.Options{Cores: s.cores}))
	var buf bytes.Buffer
	if err := causal.Analyze(s.recs, causal.Options{Cores: s.cores}).WriteJSON(&buf); err != nil {
		t.Fatalf("%s causal: %v", s.name, err)
	}
	out["causal"] = buf.Bytes()
	enc("replay", replay.Final(s.recs, s.cores))
	return out
}

// TestAnalyzerOutputsGolden pins the canonical JSON of the conflictgraph
// Report, the causal Report and the final replay State over two fixed
// streams: the ungoverned livelock probe, and a wrapped window of a
// contended FlexTM(Lazy) run. A refactor of the analyzers must leave every
// byte unchanged; a deliberate change of their definitions regenerates the
// files under testdata/analyzers and says why.
func TestAnalyzerOutputsGolden(t *testing.T) {
	wrapped := contendedStream(t, FlexTMLazy, 512)
	wrapped.name = "lazy-wrapped"
	if wrapped.lost == 0 {
		t.Fatal("the wrapped stream lost no records; shrink its rings")
	}
	for _, s := range []analyzerStream{livelockStream(t), wrapped} {
		for key, got := range analyzerJSON(t, s) {
			path := filepath.Join("testdata", "analyzers", s.name+"."+key+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the golden file (%d vs %d bytes)", path, len(got), len(want))
			}
		}
	}
}

// TestAnalyzersAgreeOnKillsAndAttempts: the three analyzers read the same
// attempt lifecycle. conflictgraph's abort edges count exactly the kills
// that causal attributes to an enemy, on complete and wrapped windows
// alike; on complete windows all three agree per core on commits, aborts
// and attempts.
func TestAnalyzersAgreeOnKillsAndAttempts(t *testing.T) {
	for _, system := range []SystemName{FlexTMEager, FlexTMLazy} {
		for _, perCore := range []int{512, 1 << 17} {
			s := contendedStream(t, system, perCore)
			cg := conflictgraph.Analyze(s.recs, conflictgraph.Options{Cores: s.cores})
			ca := causal.Analyze(s.recs, causal.Options{Cores: s.cores})
			st := replay.Final(s.recs, s.cores)

			var edgeKills, enemyKills uint64
			for _, e := range cg.AbortEdges {
				edgeKills += e.Kills
			}
			for _, atts := range ca.PerCore {
				for _, a := range atts {
					if a.KillAt != 0 && !a.SelfKill {
						enemyKills++
					}
				}
			}
			if edgeKills != enemyKills {
				t.Errorf("%s rings %d (lost %d): conflictgraph abort edges carry %d kills, causal attributes %d",
					system, perCore, s.lost, edgeKills, enemyKills)
			}
			if s.lost != 0 {
				continue
			}
			for c := 0; c < s.cores; c++ {
				var commits, aborts uint64
				for _, a := range ca.PerCore[c] {
					switch a.Outcome {
					case causal.Committed:
						commits++
					case causal.Aborted:
						aborts++
					}
				}
				cs, rs := cg.PerCore[c], st.Cores[c]
				if cs.Commits != commits || rs.Commits != commits || cs.Aborts != aborts || rs.Aborts != aborts {
					t.Errorf("%s core %d: commits cg/causal/replay = %d/%d/%d, aborts = %d/%d/%d",
						system, c, cs.Commits, commits, rs.Commits, cs.Aborts, aborts, rs.Aborts)
				}
				if n := len(ca.PerCore[c]); n != rs.Attempt {
					t.Errorf("%s core %d: causal has %d attempts, replay %d", system, c, n, rs.Attempt)
				}
			}
		}
	}
}

// TestAnalyzerAllocs bounds the allocations of the two analyzers that run
// on every observatory frame, over a fixed recorded window. The bounds are
// the counts measured before the analyzers shared one lifecycle fold; the
// fold must not raise them.
func TestAnalyzerAllocs(t *testing.T) {
	s := contendedStream(t, FlexTMLazy, 512)
	cg := testing.AllocsPerRun(20, func() {
		conflictgraph.Analyze(s.recs, conflictgraph.Options{Cores: s.cores})
	})
	ca := testing.AllocsPerRun(20, func() {
		causal.Analyze(s.recs, causal.Options{Cores: s.cores})
	})
	t.Logf("allocs per call: conflictgraph %.0f, causal %.0f", cg, ca)
	const cgMax, caMax = 283, 166
	if cg > cgMax {
		t.Errorf("conflictgraph.Analyze: %.0f allocs per call, bound %d", cg, cgMax)
	}
	if ca > caMax {
		t.Errorf("causal.Analyze: %.0f allocs per call, bound %d", ca, caMax)
	}
}
