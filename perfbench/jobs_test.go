package main

import "testing"

// TestJobsTracedRunMatchesUntraced runs every warm-up job spec and the
// first generated ones with and without the tracer: the scheduler wrapper
// must leave each run's exact counts unchanged, and every job must pass
// its gates.
func TestJobsTracedRunMatchesUntraced(t *testing.T) {
	j := &jobsWL{}
	if err := j.setup(1); err != nil {
		t.Fatal(err)
	}
	if err := j.pin(); err != nil {
		t.Fatal(err)
	}
	specs := append(j.warm, j.specs[:64]...)
	tr := newTracer()
	for _, spec := range specs {
		a := j.exec(spec, nil)
		b := j.exec(spec, tr)
		if a.err != nil || b.err != nil {
			t.Fatalf("%+v: untraced %v, traced %v", spec, a.err, b.err)
		}
		if a.counts != b.counts {
			t.Fatalf("%+v: traced counts %q, untraced %q", spec, b.counts, a.counts)
		}
	}
	if j.decodeNS.Load() <= 0 || j.runNS.Load() <= j.decodeNS.Load() {
		t.Errorf("decode %d ns of %d ns run time", j.decodeNS.Load(), j.runNS.Load())
	}
}
