package main

import (
	"context"
	"testing"

	"asynccycle/internal/bigsim"
	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// bigRun runs the fast kernel to termination under sched, optionally
// through the timing kernel wrapper.
func bigRun(t *testing.T, xs []int, sched bigsim.Sched, wrapKernel bool) *bigsim.Engine {
	t.Helper()
	d, err := protocol.Lookup("fast")
	if err != nil {
		t.Fatal(err)
	}
	k, err := d.BigKernel(xs)
	if err != nil {
		t.Fatal(err)
	}
	if wrapKernel {
		k = &tracedKernel{Kernel: k, smp: &sampler{}}
	}
	e := bigsim.New(k)
	e.SetIncremental(true)
	if reason, err := e.RunBudget(context.Background(), sched, runctl.Budget{}); err != nil || reason != runctl.StopNone {
		t.Fatalf("run: %v %s", err, reason)
	}
	return e
}

func TestSchedWrapperKeepsRRBatched(t *testing.T) {
	xs := newRand(7, 0).Perm(20_000)
	plain := bigRun(t, xs, bigsim.NewRR(1), false)
	ts := &tracedSched{inner: bigsim.NewRR(1)}
	traced := bigRun(t, xs, ts, true)
	if plain.Steps() != traced.Steps() || plain.TotalActivations() != traced.TotalActivations() {
		t.Fatalf("wrapped RR(1): steps %d acts %d, unwrapped steps %d acts %d",
			traced.Steps(), traced.TotalActivations(), plain.Steps(), plain.TotalActivations())
	}
	// Batched decoding emits up to 4096 activations per call; the step
	// path would call the scheduler once per step.
	if ts.calls == 0 || ts.calls*100 > traced.Steps() {
		t.Errorf("%d decode calls for %d steps: the wrapper lost the batched path", ts.calls, traced.Steps())
	}
	a, b := plain.Result(), traced.Result()
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] || a.Activations[i] != b.Activations[i] {
			t.Fatalf("node %d: output/activations %d/%d wrapped, %d/%d unwrapped",
				i, b.Outputs[i], b.Activations[i], a.Outputs[i], a.Activations[i])
		}
	}

	// A non-batchable scheduler goes through Next, one call per step.
	one := &tracedSched{inner: bigsim.NewRandomOne(3)}
	e := bigRun(t, xs[:2000], one, false)
	if ref := bigRun(t, xs[:2000], bigsim.NewRandomOne(3), false); ref.Steps() != e.Steps() {
		t.Errorf("random-one: %d steps wrapped, %d unwrapped", e.Steps(), ref.Steps())
	}
	if one.calls != e.Steps() {
		t.Errorf("random-one: %d decode calls for %d steps", one.calls, e.Steps())
	}
}

func TestNodeWrapperFingerprints(t *testing.T) {
	xs := []int{3, 9, 1, 7, 4, 12, 5}
	g := graph.MustCycle(len(xs))
	plain, err := sim.NewEngine(g, core.NewFiveNodes(xs))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := sim.NewEngine(g, wrapNodes(core.NewFiveNodes(xs), &sampler{}, newTracer()))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range [][]int{{0, 1, 2}, {3}, {4, 5}, {6, 0}} {
		plain.Step(step)
		wrapped.Step(step)
	}
	if a, b := plain.Fingerprint(), wrapped.Fingerprint(); a != b {
		t.Fatalf("string fingerprint differs:\n%s\n%s", a, b)
	}
	h1, h2 := plain.FingerprintHash128()
	w1, w2 := wrapped.FingerprintHash128()
	if h1 != w1 || h2 != w2 {
		t.Fatalf("hash fingerprint %x/%x wrapped, %x/%x unwrapped", w1, w2, h1, h2)
	}
	if a := testing.AllocsPerRun(200, func() { wrapped.FingerprintHash128() }); a != 0 {
		t.Errorf("warm FingerprintHash128 over wrapped nodes allocates %v/op, want 0", a)
	}
}

// The traced certify path must count exactly the states the descriptor's
// own Check and Worst count.
func TestTracedCheckMatchesDescriptor(t *testing.T) {
	d, err := protocol.Lookup("five")
	if err != nil {
		t.Fatal(err)
	}
	a := certAsg{d: d, xs: []int{3, 9, 1, 7}}
	opt := model.Options{SingletonsOnly: true}
	want, err := d.Check(a.xs, sim.ModeInterleaved, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantWorst, _, _, err := d.Worst(a.xs, sim.ModeInterleaved, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := &certify{}
	tr := newTracer()
	_, _, got, err := c.tracedCheck("explore", a, opt, tr)
	if err != nil || got.States != want.States || got.Terminal != want.Terminal {
		t.Fatalf("traced explore %d/%d (%v), descriptor %d/%d", got.States, got.Terminal, err, want.States, want.Terminal)
	}
	worst, ok, _, err := c.tracedCheck("worst", a, opt, tr)
	if err != nil || !ok || len(worst) != len(wantWorst) {
		t.Fatalf("traced worst %v ok=%t err=%v, descriptor %v", worst, ok, err, wantWorst)
	}
	for i := range worst {
		if worst[i] != wantWorst[i] {
			t.Fatalf("traced worst %v, descriptor %v", worst, wantWorst)
		}
	}
	if c.node.sampled.Load() == 0 || c.invCalls.Load() != int64(want.States) {
		t.Errorf("sampled %d node calls, %d invariant calls for %d states", c.node.sampled.Load(), c.invCalls.Load(), want.States)
	}
}
