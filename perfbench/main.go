// Command perfbench measures the host cost of the FlexTM simulator: how
// much host time and memory the deterministic simulation of a set of
// harness cells takes, and where that time goes by layer. It checks every
// simulated result against a stored reference. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload flextm-16t --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"flextm/internal/harness"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "flextm-16t", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "selects the untimed warm-up length; multiples of 8 keep harness.DefaultWarmup")
	seconds := fs.Int("seconds", 30, "measuring time; every cell runs at least once")
	traced := fs.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench-out"), "directory for the CPU profile and spans of a traced run")
	gen := fs.Bool("gen-reference", false, "rewrite "+referenceFile+" and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gen {
		return generateReference()
	}
	cells, err := cellsFor(*workload)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	vi := variantOf(*seed)
	check, err := newChecker(ref, vi)
	if err != nil {
		return err
	}
	budget := time.Duration(*seconds) * time.Second
	warmup := warmupOps(vi)

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d warmupOps=%d seconds=%d trace=%d\n",
		*workload, *seed, warmup, *seconds, *traced)
	fmt.Fprintf(stdout, "# host nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintln(stdout, "# model: unvalidated (no hardware reference); host cost only, no accuracy figure")

	var rep *report
	if *traced == 0 {
		rep = untracedRun(cells, warmup, budget, check)
	} else {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
		name := fmt.Sprintf("%s-seed%d", *workload, *seed)
		if rep, err = tracedRun(cells, warmup, budget, check, filepath.Join(*dir, name)); err != nil {
			return err
		}
	}
	return rep.print(stdout)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result; its JSON form is the last line of
// standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	errs      []error
	note      string // printed as a comment line
}

func newReport(passes ...*pass) *report {
	r := &report{Metrics: map[string]metric{}}
	for _, p := range passes {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.errs = append(r.errs, p.errs...)
	}
	r.Correct = r.Failed == 0
	return r
}

// add records a metric. A value that cannot be computed because cells
// failed (a zero denominator) is reported as 0; the report is then not
// correct anyway.
func (r *report) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics[name] = metric{value, unit}
	r.order = append(r.order, name)
}

func (r *report) print(w io.Writer) error {
	for _, err := range r.errs {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
	}
	fmt.Fprintf(w, "# cells attempted=%d failed=%d fail_ratio=%g (failed cells / cells attempted)\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	if r.note != "" {
		fmt.Fprintln(w, "#", r.note)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// calibrated scales a host time measured in a cell run to calibNominal
// host speed (see calib.go), in seconds.
func calibrated(d time.Duration, s sample) float64 {
	return d.Seconds() * calibNominal.Seconds() / s.calib.Seconds()
}

func wallS(s sample) float64    { return calibrated(s.wall, s) }
func setupS(s sample) float64   { return calibrated(s.setup, s) }
func verifyS(s sample) float64  { return calibrated(s.verify, s) }
func rawWallS(s sample) float64 { return s.wall.Seconds() }
func calibS(s sample) float64   { return s.calib.Seconds() }
func memops(s sample) float64   { return float64(s.res.memops()) }

// minSetups is how many times every cell's set-up is timed in a run.
const minSetups = 5

// untracedRun measures the end-to-end metrics.
func untracedRun(cells []cell, warmup int, budget time.Duration, check checker) *report {
	p := measure(cells, warmup, budget, nil, check)
	r := newReport(p)
	ops := p.first(memops)
	wall := p.sumMedians(wallS, nil)
	heap := 0.0
	for _, ss := range p.samples {
		heap = max(heap, cellMedian(ss, func(s sample) float64 { return float64(s.heap) }))
	}
	r.add("wall_s", wall, "s")
	r.add("memop_ns", wall/ops*1e9, "ns")
	r.add("allocs_per_memop", p.sumMedians(func(s sample) float64 { return float64(s.mallocs) }, nil)/ops, "count")
	r.add("bytes_per_memop", p.sumMedians(func(s sample) float64 { return float64(s.bytes) }, nil)/ops, "B")
	r.add("heap_mb", heap/1e6, "MB")
	r.add("setup_s", setupTime(p), "s")
	r.note = fmt.Sprintf("uncalibrated wall_s=%.4f s; median calibration kernel %.3f ms (nominal %.3f ms)",
		p.sumMedians(rawWallS, nil), 1e3*p.medianOf(calibS), 1e3*calibNominal.Seconds())
	return r
}

// setupTime sums over cells the median of each cell's set-up time. Cells
// that ran fewer than minSetups times get extra set-ups outside
// harness.Run, built the way harness.Run builds them.
func setupTime(p *pass) float64 {
	total := 0.0
	for i, c := range p.cells {
		if len(p.samples[i]) == 0 {
			continue
		}
		v := make([]float64, 0, minSetups)
		for _, s := range p.samples[i] {
			v = append(v, setupS(s))
		}
		for len(v) < minSetups {
			before := calibrate()
			d := setupOnce(c)
			v = append(v, calibrated(d, sample{calib: (before + calibrate()) / 2}))
		}
		total += median(v)
	}
	return total
}

func setupOnce(c cell) time.Duration {
	p := &probe{}
	sys := tmesi.New(tmesi.DefaultConfig())
	env := &workloads.Env{Image: sys.Image(), Alloc: sys.Alloc(), Raw: sys.ReadWordRaw}
	wrapFactory(c.factory, p).New().Setup(env)
	return p.setupEnd.Sub(p.setupStart)
}

// tracedRun measures the per-layer metrics. It first runs the cells
// untraced for half the budget, as the base of trace.overhead_pct (and,
// on flextm-observed, alongside their unobserved twins for
// instr.overhead_pct). It then runs them for the other half with the
// wrapper's counts, spans and a CPU profile of this process, and last runs
// the unit-cost probes.
func tracedRun(cells []cell, warmup int, budget time.Duration, check checker, out string) (*report, error) {
	observed := cells[0].observe
	plain := cells
	if observed {
		plain = nil
		for _, c := range cells {
			twin := c
			twin.key, twin.twin, twin.observe = c.twin, "", false
			plain = append(plain, twin, c)
		}
	}
	a := measure(plain, warmup, budget/2, nil, check)

	prof, err := os.Create(out + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	spans := &spanLog{origin: time.Now()}
	b := measure(cells, warmup, budget/2, spans, check)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if err := writeJSON(out+".spans.json", spans.spans); err != nil {
		return nil, err
	}
	probes, err := runProbes()
	if err != nil {
		return nil, err
	}
	counts, samples, err := foldProfile(out + ".cpu.pprof")
	if err != nil {
		return nil, err
	}

	// own selects the workload's own cells out of the untraced pass, which
	// on flextm-observed also holds the unobserved twins.
	own := func(c cell) bool { return c.observe == observed }
	r := newReport(a, b)
	for _, l := range layers {
		r.add(l+".share", pct(float64(counts[l]), float64(samples)), "%")
	}
	r.add("profile.samples", float64(samples), "count")
	for _, pr := range probes {
		r.add(pr.name, pr.ns, "ns")
	}

	stat := func(f func(tmesi.Stats) uint64) float64 {
		return b.first(func(s sample) float64 { return float64(f(s.res.Machine)) })
	}
	count := func(f func(probe) uint64) float64 {
		return b.first(func(s sample) float64 { return float64(f(s.counts)) })
	}
	ops := b.first(memops)
	hits, misses := stat(func(m tmesi.Stats) uint64 { return m.L1Hits }), stat(func(m tmesi.Stats) uint64 { return m.L1Misses })
	r.add("tmesi.memops", ops, "count")
	r.add("tmesi.l1_miss_ratio", misses/(hits+misses), "ratio")
	r.add("tmesi.probes_per_memop", stat(func(m tmesi.Stats) uint64 { return m.Probes })/ops, "ratio")
	r.add("tmesi.conflict_responses", stat(func(m tmesi.Stats) uint64 { return m.ThreatenedResponses + m.ExposedReadResponses }), "count")
	r.add("tmesi.flash_commits", stat(func(m tmesi.Stats) uint64 { return m.FlashCommits }), "count")
	r.add("tmesi.flash_aborts", stat(func(m tmesi.Stats) uint64 { return m.FlashAborts }), "count")
	r.add("core.aborts", b.first(func(s sample) float64 { return float64(s.res.Aborts) }), "count")
	r.add("core.attempts_per_commit", count(func(p probe) uint64 { return p.attempts })/count(func(p probe) uint64 { return p.atomics }), "ratio")
	r.add("workloads.ops", count(func(p probe) uint64 { return p.ops }), "count")
	r.add("workloads.txn_accesses", count(func(p probe) uint64 { return p.accesses }), "count")
	r.add("workloads.setup_ms", a.sumMedians(setupS, own)*1e3, "ms")
	r.add("workloads.verify_ms", a.sumMedians(verifyS, own)*1e3, "ms")
	r.add("flight.records", b.first(func(s sample) float64 { return float64(s.records) }), "count")
	r.add("observatory.frames", b.first(func(s sample) float64 { return float64(s.frames) }), "count")

	wallA := a.sumMedians(wallS, own)
	for _, sys := range []harness.SystemName{harness.CGL, harness.FlexTMEager, harness.FlexTMLazy, harness.RTMF, harness.RSTM, harness.TL2} {
		share := a.sumMedians(wallS, func(c cell) bool { return own(c) && c.system == sys })
		r.add("harness.cell_share."+metricName(sys), pct(share, wallA), "%")
	}
	instr := 0.0
	if observed {
		instr = overheadPct(wallA, a.sumMedians(wallS, func(c cell) bool { return !c.observe }))
	}
	r.add("instr.overhead_pct", instr, "%")
	rawA := a.sumMedians(rawWallS, own)
	r.add("trace.overhead_pct", overheadPct(b.sumMedians(rawWallS, nil), rawA), "%")
	r.add("host.wall_s", rawA, "s")
	r.add("host.calib_ms", 1e3*a.medianOf(calibS), "ms")
	return r, nil
}

// metricName turns a system name into a metric name component:
// "FlexTM(Eager)" becomes "FlexTM-Eager".
func metricName(sys harness.SystemName) string {
	return strings.NewReplacer("(", "-", ")", "").Replace(string(sys))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func overheadPct(with, without float64) float64 {
	if without == 0 {
		return 0
	}
	return 100 * (with/without - 1)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
