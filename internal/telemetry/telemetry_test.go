package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCounterNamesComplete(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		if strings.HasPrefix(c.String(), "Counter(") {
			t.Errorf("counter %d has no name", c)
		}
	}
	for h := HistID(0); h < NumHists; h++ {
		if strings.HasPrefix(h.String(), "HistID(") {
			t.Errorf("hist %d has no name", h)
		}
	}
	if n := len(SortedCounterNames()); n != int(NumCounters) {
		t.Fatalf("SortedCounterNames returned %d names, want %d", n, NumCounters)
	}
}

func TestNilRegistryIsSafeAndEmpty(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry claims enabled")
	}
	r.Inc(0, CtrProbes)
	r.Add(3, CtrCycStall, 100)
	r.Observe(1, HistCommitCycles, 42)
	r.Reset()
	if s := r.Snapshot(); !s.Empty() {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := New(4)
	r.Inc(0, CtrProbes)
	r.Inc(0, CtrProbes)
	r.Add(2, CtrCSTSet, 5)
	r.Observe(1, HistCommitCycles, 100)
	prev := r.Snapshot()

	r.Inc(0, CtrProbes)
	r.Add(2, CtrCSTSet, 3)
	r.Observe(1, HistCommitCycles, 200)
	r.Observe(1, HistCommitCycles, 50)
	cur := r.Snapshot()

	d := cur.Diff(prev)
	if got := d.Total(CtrProbes); got != 1 {
		t.Fatalf("diff probes = %d, want 1", got)
	}
	if got := d.Total(CtrCSTSet); got != 3 {
		t.Fatalf("diff cst-set = %d, want 3", got)
	}
	h := d.Hist(HistCommitCycles)
	if h.Count != 2 || h.Sum != 250 {
		t.Fatalf("diff hist count=%d sum=%d, want 2/250", h.Count, h.Sum)
	}
	// The snapshots are frozen copies: mutating the registry afterwards
	// must not change them.
	r.Add(0, CtrProbes, 100)
	if cur.Total(CtrProbes) != 3 {
		t.Fatal("snapshot aliases live registry state")
	}
	// Diff against an empty snapshot is the identity.
	if id := cur.Diff(Snapshot{}); id.Total(CtrCSTSet) != cur.Total(CtrCSTSet) {
		t.Fatal("diff against empty snapshot changed totals")
	}
	// Mismatched (reversed) diff clamps to zero rather than underflowing.
	rev := prev.Diff(cur)
	if got := rev.Total(CtrProbes); got != 0 {
		t.Fatalf("reversed diff probes = %d, want clamp to 0", got)
	}
}

func TestResetAndEmpty(t *testing.T) {
	r := New(2)
	if !r.Snapshot().Empty() {
		t.Fatal("fresh registry not empty")
	}
	r.Inc(1, CtrAlert)
	r.Observe(0, HistAbortCycles, 7)
	if r.Snapshot().Empty() {
		t.Fatal("populated registry reported empty")
	}
	r.Reset()
	if !r.Snapshot().Empty() {
		t.Fatal("reset registry not empty")
	}
}

func TestHistBucketsAndQuantiles(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.observe(v)
	}
	if h.Count != 6 || h.Sum != 1010 {
		t.Fatalf("count=%d sum=%d", h.Count, h.Sum)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[2] != 2 || h.Buckets[3] != 1 || h.Buckets[10] != 1 {
		t.Fatalf("buckets = %v", h.Buckets[:12])
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %d", q)
	}
	// p99 lands in the 1000 bucket: bound is 2^10-1.
	if q := h.Quantile(0.99); q != 1023 {
		t.Fatalf("q99 = %d, want 1023", q)
	}
	if m := h.Mean(); m < 168 || m > 169 {
		t.Fatalf("mean = %f", m)
	}
}

func TestSigFPRates(t *testing.T) {
	r := New(1)
	// 1 false positive over 4 ground-truth negatives; the analytic model
	// predicted 0.2 at each test.
	r.Inc(0, CtrSigFalsePos)
	r.Add(0, CtrSigTrueNeg, 3)
	r.Add(0, CtrSigPredFPpm, 4*200_000)
	obs, pred := r.Snapshot().SigFPRates()
	if obs != 0.25 {
		t.Fatalf("observed = %f, want 0.25", obs)
	}
	if pred < 0.199 || pred > 0.201 {
		t.Fatalf("predicted = %f, want ~0.2", pred)
	}
}

func TestAttribution(t *testing.T) {
	r := New(2)
	r.Inc(0, CtrTxnCommits)
	r.Add(0, CtrCycUseful, 700)
	r.Add(0, CtrCycCommitOv, 100)
	r.Inc(1, CtrTxnAborts)
	r.Add(1, CtrCycAborted, 150)
	r.Add(1, CtrCycStall, 50)
	s := r.Snapshot()
	a := s.Attribution()
	if a.Commits != 1 || a.Aborts != 1 || a.Total() != 1000 {
		t.Fatalf("attribution = %+v", a)
	}
	per := s.AttributionPerCore()
	if per[0].Useful != 700 || per[1].Aborted != 150 {
		t.Fatalf("per-core attribution = %+v", per)
	}
	var buf bytes.Buffer
	s.PrintAttribution(&buf)
	for _, want := range []string{"useful work", "stall-wait", "aborted work", "commit overhead"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("attribution table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestPrintAndCompact(t *testing.T) {
	r := New(2)
	r.Inc(0, CtrTMIEnter)
	r.Inc(1, CtrSigTruePos)
	r.Observe(0, HistCommitCycles, 500)
	s := r.Snapshot()
	var buf bytes.Buffer
	s.Print(&buf)
	out := buf.String()
	for _, want := range []string{"protocol (TMESI/PDI)", "tmi-enter", "signatures", "hist commit-cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("print missing %q:\n%s", want, out)
		}
	}
	// All-zero groups are skipped.
	if strings.Contains(out, "overflow table") {
		t.Fatalf("all-zero group printed:\n%s", out)
	}
	if c := Compact(s); !strings.Contains(c, "sig tp/fp=1/0") {
		t.Fatalf("compact digest = %q", c)
	}
}

// TestHotPathDoesNotAllocate pins the zero-cost-when-disabled contract: the
// counter/histogram update path allocates nothing, whether the registry is
// nil (disabled) or live.
func TestHotPathDoesNotAllocate(t *testing.T) {
	var nilReg *Registry
	if n := testing.AllocsPerRun(1000, func() {
		nilReg.Inc(0, CtrProbes)
		nilReg.Add(0, CtrCycStall, 7)
		nilReg.Observe(0, HistCommitCycles, 7)
	}); n != 0 {
		t.Fatalf("disabled path allocates %v per op", n)
	}
	r := New(16)
	if n := testing.AllocsPerRun(1000, func() {
		r.Inc(3, CtrProbes)
		r.Add(3, CtrCycStall, 7)
		r.Observe(3, HistCommitCycles, 7)
	}); n != 0 {
		t.Fatalf("enabled path allocates %v per op", n)
	}
}

func BenchmarkDisabledInc(b *testing.B) {
	var r *Registry
	for i := 0; i < b.N; i++ {
		r.Inc(0, CtrProbes)
	}
}

func BenchmarkEnabledInc(b *testing.B) {
	r := New(16)
	for i := 0; i < b.N; i++ {
		r.Inc(i&15, CtrProbes)
	}
}

func TestEmptyHistIsGuarded(t *testing.T) {
	var h Hist
	if m := h.Mean(); m != 0 || math.IsNaN(m) {
		t.Fatalf("empty Mean = %v, want 0", m)
	}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2, math.NaN()} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, v)
		}
	}
	// An empty snapshot histogram (the Print path) must also be zero-safe.
	s := New(1).Snapshot()
	m := s.Hist(HistID(0))
	if v := m.Mean(); v != 0 {
		t.Fatalf("snapshot empty Mean = %v", v)
	}
}

func TestQuantileClampsOutOfRange(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.observe(uint64(i))
	}
	lo, hi := h.Quantile(0), h.Quantile(1)
	if got := h.Quantile(-5); got != lo {
		t.Fatalf("Quantile(-5) = %d, want clamp to Quantile(0) = %d", got, lo)
	}
	if got := h.Quantile(7); got != hi {
		t.Fatalf("Quantile(7) = %d, want clamp to Quantile(1) = %d", got, hi)
	}
	if got := h.Quantile(math.NaN()); got != lo {
		t.Fatalf("Quantile(NaN) = %d, want clamp to Quantile(0) = %d", got, lo)
	}
	if q50 := h.Quantile(0.5); q50 < lo || q50 > hi {
		t.Fatalf("Quantile(0.5) = %d outside [%d, %d]", q50, lo, hi)
	}
}
