package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want float64 // 0 = refused
	}{
		{0.5, 19, 0},
		{0.5, 20, 10},
		{0.9, 99, 0},
		{0.9, 100, 90},
		{0.99, 999, 0},
		{0.99, 1000, 990},
	} {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want a refusal", 100*c.q, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", 100*c.q, c.n, got, err, c.want)
		}
	}
}

// fakeWL is a workload whose ops fail on a fixed schedule.
type fakeWL struct {
	failEvery int
	counts    func(i int) string
}

func (f *fakeWL) name() string                                  { return "fake" }
func (f *fakeWL) setup(int64) error                             { return nil }
func (f *fakeWL) pin() error                                    { return nil }
func (f *fakeWL) teardown()                                     {}
func (f *fakeWL) numOps() int                                   { return 4 }
func (f *fakeWL) clients() int                                  { return 1 }
func (f *fakeWL) kinds() []string                               { return []string{"k"} }
func (f *fakeWL) setupReps() int                                { return 1 }
func (f *fakeWL) opsPerSecond() float64                         { return 1000 }
func (f *fakeWL) layers(a, b *phase, m map[string]metric) error { return nil }
func (f *fakeWL) op(i int, _ *tracer) opResult {
	r := opResult{kind: "k", work: 1, counts: f.counts(i), dur: time.Millisecond}
	if f.failEvery > 0 && i%f.failEvery == 0 {
		r.err = errors.New("gate failed")
	}
	return r
}

func TestFailFracCounting(t *testing.T) {
	var tl tally
	tl.record(1, nil)
	tl.record(2, errors.New("bad"))
	tl.record(3, nil)
	tl.record(4, nil)
	if tl.attempted != 4 || tl.failed != 1 || tl.failFrac() != 0.25 {
		t.Fatalf("attempted %d failed %d frac %v, want 4 1 0.25", tl.attempted, tl.failed, tl.failFrac())
	}
	if !math.IsInf(tl.latMS[1], 1) {
		t.Errorf("failed op latency %v, want +Inf (misses every limit)", tl.latMS[1])
	}
	if (&tally{}).failFrac() != 0 {
		t.Error("empty tally fail_frac not 0")
	}

	// Every second op of the 4-op sequence fails: half of all attempts.
	w := &fakeWL{failEvery: 2, counts: func(i int) string { return "same" }}
	ph := measure(w, 0, 1001, time.Second, nil, nil, nil)
	if ph.attempted == 0 || ph.failed != (ph.attempted+1)/2 {
		t.Errorf("attempted %d failed %d, want half failed", ph.attempted, ph.failed)
	}
	if ph.work != int64(ph.attempted-ph.failed) {
		t.Errorf("work %d counts failed ops", ph.work)
	}

	// An op whose exact counts change between two runs of the same
	// sequence index fails, as does one differing from a reference phase.
	calls := 0
	w = &fakeWL{counts: func(i int) string { calls++; return string(rune('a' + calls%7)) }}
	ph = measure(w, 0, 1001, time.Second, nil, nil, nil)
	if ph.attempted <= 4 || ph.failed == 0 {
		t.Errorf("changing counts: attempted %d failed %d, want failures once the sequence repeats", ph.attempted, ph.failed)
	}
	w = &fakeWL{counts: func(i int) string { return "traced" }}
	ph = measure(w, 0, 1001, time.Second, nil, map[int]string{0: "untraced"}, nil)
	if want := (ph.attempted + 3) / 4; ph.failed != want {
		t.Errorf("reference mismatch: failed %d of %d, want every run of op 0 (%d)", ph.failed, ph.attempted, want)
	}
}

func TestRunEndToEndReportsFailures(t *testing.T) {
	w := &fakeWL{failEvery: 4, counts: func(i int) string { return "x" }}
	rep, _, err := runEndToEnd(w, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 || rep.Failed > rep.Attempted {
		t.Errorf("report correct=%t failed=%d attempted=%d, want incorrect with failures", rep.Correct, rep.Failed, rep.Attempted)
	}
}
