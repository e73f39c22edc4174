// Command perfbench is the repository benchmark. It runs one workload —
// certify (exhaustive model checking), bigrun (million-node engine runs),
// jobs (colorserved's job mix executed in-process) or serve (the same jobs
// over loopback HTTP) — as a seed-generated sequence of ops for a fixed
// time, checks every op's output, and prints the end-to-end metrics. With
// -trace 1 it instead measures every workload BENCHMARK.json declares
// untraced and then traced, and prints all their per-layer metrics; an
// undeclared workload (serve, for now) is traced alone.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload certify --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when
// any op failed a correctness gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// opResult is what one op reports back to the harness.
type opResult struct {
	kind   string
	work   int64  // the workload's unit of useful work
	counts string // exact counts that must repeat for the same op
	err    error  // a failed correctness gate
	// dur, when set, is the op's latency: the program calls alone,
	// without the benchmark's own output checks.
	dur time.Duration
}

// workload is one benchmark workload: a fixed op sequence generated from
// the seed, run by clients() concurrent callers.
type workload interface {
	name() string
	// setup builds everything a user pays for once per process, including
	// one warm-up op of each kind.
	setup(seed int64) error
	// pin computes the reference values the gates compare against; it is
	// not part of set-up time.
	pin() error
	teardown()
	numOps() int
	clients() int
	// kinds lists the op kinds in report order.
	kinds() []string
	// op runs op i of the sequence (0 ≤ i < numOps()); tr is nil when
	// untraced.
	op(i int, tr *tracer) opResult
	// setupReps is how many times set-up is repeated to take its median.
	setupReps() int
	// opsPerSecond is the nominal op rate on a 2-core x86 VM: a run of S
	// seconds does a fixed S × opsPerSecond ops, so every run of a
	// workload does the same work and takes about S seconds.
	opsPerSecond() float64
	// layers turns an untraced phase a and a traced phase b into the
	// workload's per-layer metrics.
	layers(a, b *phase, m map[string]metric) error
}

// phase is one timed stretch of ops.
type phase struct {
	tally
	elapsed time.Duration
	work    int64
	byKind  map[string][]float64
	counts  map[int]string
	rt0     runtimeSample
	rt1     runtimeSample
}

// measure runs ops ops of the sequence from op number first on (cycling
// through it) with w.clients() concurrent callers, so the same seed and
// op count always give the same work. It stops early, recording a
// failure, if the ops take longer than maxDur. An op whose exact counts
// differ from an earlier run of the same sequence index (kept in counts,
// which may carry over from an earlier phase, or nil), or from ref,
// fails.
func measure(w workload, first, ops int, maxDur time.Duration, tr *tracer, ref, counts map[int]string) *phase {
	runtime.GC()
	if counts == nil {
		counts = map[int]string{}
	}
	ph := &phase{byKind: map[string][]float64{}, counts: counts}
	var mu sync.Mutex
	var next atomic.Int64
	var late atomic.Bool
	start := time.Now()
	ph.rt0 = sampleRuntime()
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if time.Since(start) > maxDur {
					late.Store(true)
					return
				}
				seq := next.Add(1) - 1
				if seq >= int64(ops) {
					return
				}
				seq += int64(first)
				i := int(seq % int64(w.numOps()))
				if tr != nil {
					tr.op.Store(seq)
				}
				t0 := time.Now()
				r := w.op(i, tr)
				d := time.Since(t0)
				if r.dur > 0 {
					d = r.dur
				}
				ms := float64(d) / 1e6
				mu.Lock()
				if r.err == nil {
					if prev, ok := ph.counts[i]; ok && prev != r.counts {
						r.err = fmt.Errorf("op %d (%s): counts %q differ from an earlier run %q", i, r.kind, r.counts, prev)
					} else if prev, ok := ref[i]; ok && prev != r.counts {
						r.err = fmt.Errorf("op %d (%s): traced counts %q differ from untraced %q", i, r.kind, r.counts, prev)
					}
					ph.counts[i] = r.counts
					ph.work += r.work
				}
				ph.record(ms, r.err)
				ph.byKind[r.kind] = append(ph.byKind[r.kind], ms)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.rt1 = sampleRuntime()
	if late.Load() {
		ph.failed++
		ph.reasons = append(ph.reasons, fmt.Sprintf("%s: %d of %d ops done after %v", w.name(), ph.attempted, ops, maxDur))
	}
	return ph
}

// A run is measured in at most maxChunks chunks of at least chunkMinOps
// ops, enough for each chunk's p90 to have ten ops beyond it.
const (
	maxChunks   = 15
	chunkMinOps = 120
)

// maxMeasure caps the measured time of a run well inside the 180 s a run
// may take; a run that needs longer fails.
const maxMeasure = 120 * time.Second

// tracedPhaseCap caps each of the traced run's six stretches.
const tracedPhaseCap = 25 * time.Second

// opsFor is the fixed op count of a stretch of the given nominal length.
func opsFor(w workload, d time.Duration) int {
	return int(math.Ceil(w.opsPerSecond() * d.Seconds()))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declaredWorkloads reads the workload names BENCHMARK.json declares; the
// benchmark runs from the repository root, where that file lives.
func declaredWorkloads() ([]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := make([]string, len(b.Workloads))
	for i, w := range b.Workloads {
		names[i] = w.Name
	}
	return names, nil
}

func newWorkload(name, spillRoot string) (workload, error) {
	switch name {
	case "certify":
		return &certify{spillRoot: spillRoot}, nil
	case "bigrun":
		return &bigrun{}, nil
	case "jobs":
		return &jobsWL{}, nil
	case "serve":
		return &serveWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (certify|bigrun|jobs|serve)", name)
}

// buildDir holds the benchmark's own scratch output: spill runs and span
// files. It is ignored by git.
const buildDir = ".bench_build"

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "certify | bigrun | jobs | serve")
	seed := fs.Int64("seed", 1, "workload seed; only the input generator reads it")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traceMode := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds must be 1 to 60")
	}
	spillRoot := fmt.Sprintf("%s/spill-%d", buildDir, os.Getpid())
	defer os.RemoveAll(spillRoot)
	w, err := newWorkload(*wl, spillRoot)
	if err != nil {
		return err
	}

	dur := time.Duration(*seconds) * time.Second
	var rep report
	var table []string
	switch *traceMode {
	case 0:
		rep, table, err = runEndToEnd(w, *seed, dur)
	case 1:
		// A traced run of a declared workload measures every declared
		// workload, so that it prints the whole per-layer table; any
		// other workload is traced on its own.
		names, derr := declaredWorkloads()
		if derr != nil || !slices.Contains(names, w.name()) {
			names = []string{w.name()}
		}
		rep, err = runTraced(out, names, *seed, dur, spillRoot)
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	for _, line := range table {
		fmt.Fprintln(out, line)
	}
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Metrics[k] = metric{Value: -1, Unit: m.Unit}
			rep.Correct = false
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(data))
	if !rep.Correct {
		return fmt.Errorf("%d of %d ops failed a correctness gate", rep.Failed, rep.Attempted)
	}
	return nil
}

// timedSetup runs set-up w.setupReps() times, tearing down between
// repetitions, and returns the median duration in seconds. Each
// repetition starts from a collected heap so one repetition's garbage is
// not charged to the next.
func timedSetup(w workload, seed int64) (float64, error) {
	var durs []float64
	for r := 0; r < w.setupReps(); r++ {
		if r > 0 {
			w.teardown()
		}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return median(durs), nil
}

func runEndToEnd(w workload, seed int64, dur time.Duration) (report, []string, error) {
	setupS, err := timedSetup(w, seed)
	if err != nil {
		return report{}, nil, err
	}
	defer w.teardown()
	if err := w.pin(); err != nil {
		return report{}, nil, fmt.Errorf("%s pin: %w", w.name(), err)
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return report{}, nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	// The run's fixed ops are measured in consecutive chunks; each timing
	// metric is the median of its per-chunk values, so a slow spell on a
	// shared machine that covers one chunk does not move it. A run holds
	// at least one full chunk, whatever its nominal length.
	total := max(opsFor(w, dur), chunkMinOps)
	chunks := max(1, min(maxChunks, total/chunkMinOps))
	var ph phase
	var elapsed time.Duration
	var wps, p50s, p90s []float64
	counts := map[int]string{}
	deadline := time.Now().Add(maxMeasure)
	for c := 0; c < chunks; c++ {
		first := c * total / chunks
		ch := measure(w, first, (c+1)*total/chunks-first, time.Until(deadline), nil, nil, counts)
		elapsed += ch.elapsed
		ph.attempted += ch.attempted
		ph.failed += ch.failed
		ph.latMS = append(ph.latMS, ch.latMS...)
		ph.reasons = append(ph.reasons, ch.reasons...)
		wps = append(wps, float64(ch.work)/ch.elapsed.Seconds())
		for _, q := range []struct {
			p   float64
			out *[]float64
		}{{0.5, &p50s}, {0.9, &p90s}} {
			v, err := percentile(ch.latMS, q.p)
			if err != nil {
				return report{}, nil, fmt.Errorf("chunk %d of %d: %w", c+1, chunks, err)
			}
			*q.out = append(*q.out, v)
		}
	}
	if sf, ok := w.(interface{ finalCheck(*phase) }); ok {
		sf.finalCheck(&ph)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return report{}, nil, err
	}
	m := map[string]metric{
		"setup_s":        {setupS, "s"},
		"work_per_s":     {median(wps), "1/s"},
		"latency_p50_ms": {median(p50s), "ms"},
		"latency_p90_ms": {median(p90s), "ms"},
		"peak_rss_mb":    {rss, "MB"},
	}
	table := []string{fmt.Sprintf("workload %s seed %d: %d ops in %d chunks, %.2fs, GOMAXPROCS=%d NumCPU=%d",
		w.name(), seed, ph.attempted, chunks, elapsed.Seconds(), runtime.GOMAXPROCS(0), runtime.NumCPU())}
	if v, err := percentile(ph.latMS, 0.99); err == nil {
		table = append(table, fmt.Sprintf("  %-16s %12.4f ms  (over all %d ops)", "latency_p99_ms", v, ph.attempted))
	} else {
		table = append(table, fmt.Sprintf("  %-16s %12s     (%v)", "latency_p99_ms", "n/a", err))
	}
	table = append(table, fmt.Sprintf("  %-16s %12.6f 1   (%d failed of %d attempted)", "fail_frac", ph.failFrac(), ph.failed, ph.attempted))
	table = append(table, metricLines(m)...)
	for _, r := range ph.reasons {
		table = append(table, "  FAILED: "+r)
	}
	return report{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, table, nil
}

// Each workload's share of a traced run's seconds: an untraced stretch
// (per-kind latencies, allocation and GC figures, the reference counts)
// and then a traced one (spans and layer shares).
const (
	untracedShare = 0.6
	tracedShare   = 0.3
)

// runTraced measures the layers of the named workloads, each in an equal
// share of the run's seconds, so that one traced run prints the whole
// per-layer table whichever of them it is started for. Each workload's
// lines go to out as soon as it is done, so a later workload that crashes
// the process does not take them along.
func runTraced(out io.Writer, names []string, seed int64, dur time.Duration, spillRoot string) (report, error) {
	rep := report{Correct: true, Metrics: map[string]metric{}}
	share := dur / time.Duration(len(names))
	for _, name := range names {
		w, _ := newWorkload(name, spillRoot)
		if _, err := timedSetup(w, seed); err != nil {
			return report{}, err
		}
		if err := w.pin(); err != nil {
			w.teardown()
			return report{}, fmt.Errorf("%s pin: %w", w.name(), err)
		}
		// The untraced stretch covers the whole op sequence at least once,
		// which holds enough ops of every kind for its median; the traced
		// stretch stays within it, so every traced op has a reference.
		na := max(opsFor(w, time.Duration(untracedShare*float64(share))), w.numOps())
		nb := min(opsFor(w, time.Duration(tracedShare*float64(share))), na)
		a := measure(w, 0, na, tracedPhaseCap, nil, nil, nil)
		tr := newTracer()
		if h, ok := w.(interface{ beforeTraced() }); ok {
			h.beforeTraced()
		}
		b := measure(w, 0, nb, tracedPhaseCap, tr, a.counts, nil)
		for _, ph := range []*phase{a, b} {
			if sf, ok := w.(interface{ finalCheck(*phase) }); ok {
				sf.finalCheck(ph)
			}
		}
		m := map[string]metric{}
		err := w.layers(a, b, m)
		w.teardown()
		if err != nil {
			return report{}, fmt.Errorf("%s layers: %w", w.name(), err)
		}
		p := w.name()
		m[p+".allocs_per_op"] = metric{float64(a.rt1.mallocs-a.rt0.mallocs) / float64(a.attempted), "count"}
		if cpu := a.rt1.allCPU - a.rt0.allCPU; cpu > 0 {
			m[p+".gc_cpu_frac"] = metric{(a.rt1.gcCPU - a.rt0.gcCPU) / cpu, "1"}
		}
		wa := float64(a.work) / a.elapsed.Seconds()
		wb := float64(b.work) / b.elapsed.Seconds()
		m[p+".trace_overhead_frac"] = metric{1 - wb/wa, "1"}
		table := []string{fmt.Sprintf("%s: untraced %d ops in %.2fs (%.4g work/s), traced %d ops in %.2fs (%.4g work/s), %d spans (%d dropped)",
			p, a.attempted, a.elapsed.Seconds(), wa, b.attempted, b.elapsed.Seconds(), wb, len(tr.spans), tr.dropped)}
		for _, ph := range []*phase{a, b} {
			rep.Attempted += ph.attempted
			rep.Failed += ph.failed
			for _, r := range ph.reasons {
				table = append(table, "  FAILED: "+r)
			}
		}
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", buildDir, p, seed)
		if err := tr.writeJSONL(path); err != nil {
			return report{}, err
		}
		table = append(table, "  spans written to "+path)
		for _, line := range append(table, metricLines(m)...) {
			fmt.Fprintln(out, line)
		}
		maps.Copy(rep.Metrics, m)
		runtime.GC()
		debug.FreeOSMemory()
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func metricLines(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, k := range names {
		lines[i] = fmt.Sprintf("  %-44s %14.6g %s", k, m[k].Value, m[k].Unit)
	}
	return lines
}

// kindP50 is the untraced per-kind median latency.
func kindP50(a *phase, kind string) (float64, error) {
	v, err := percentile(a.byKind[kind], 0.5)
	if err != nil {
		return 0, fmt.Errorf("%s p50: %w", kind, err)
	}
	return v, nil
}

// joinKinds renders per-kind sample counts for diagnostics.
func joinKinds(ph *phase, kinds []string) string {
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, len(ph.byKind[k]))
	}
	return strings.Join(parts, " ")
}
