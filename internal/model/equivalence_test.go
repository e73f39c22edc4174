package model_test

// Differential tests of the two fingerprint schemes (compact 128-bit hash
// vs exact strings), the two exploration strategies (serial DFS vs the
// parallel first-level frontier), in-RAM vs spilled visited sets, and the
// typed vs type-erased entry points into the one traversal: all must agree
// on the exhaustive facts — state counts, terminal counts, cycle existence
// — on real algorithm instances.

import (
	"fmt"
	"reflect"
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/mis"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/sim"
)

func fiveEngine(t testing.TB, n int) *sim.Engine[core.FiveVal] {
	t.Helper()
	e, err := sim.NewEngine(graph.MustCycle(n), core.NewFiveNodes(ids.MustGenerate(ids.Increasing, n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExploreHashVsStringEquivalence(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		opt := model.Options{SingletonsOnly: true}
		hashRep := model.Explore(fiveEngine(t, n), opt, nil)
		opt.StringFingerprints = true
		strRep := model.Explore(fiveEngine(t, n), opt, nil)
		if hashRep.States != strRep.States || hashRep.Terminal != strRep.Terminal ||
			hashRep.CycleFound != strRep.CycleFound || hashRep.Truncated != strRep.Truncated ||
			hashRep.DeepestPath != strRep.DeepestPath {
			t.Errorf("C%d: hash %v vs string %v", n, hashRep, strRep)
		}
		if hashRep.HashCollisions != 0 {
			t.Errorf("C%d: %d lane-A collisions on a toy instance", n, hashRep.HashCollisions)
		}
	}
}

func TestExploreWorkersEquivalence(t *testing.T) {
	// DeepestPath is deliberately not compared: workers have private
	// visited sets, so a worker may walk a state via a longer path that the
	// serial DFS had already cut off.
	for _, n := range []int{3, 4, 5} {
		serial := model.Explore(fiveEngine(t, n), model.Options{SingletonsOnly: true}, nil)
		par := model.Explore(fiveEngine(t, n), model.Options{SingletonsOnly: true, Workers: 4}, nil)
		if serial.States != par.States || serial.Terminal != par.Terminal ||
			serial.CycleFound != par.CycleFound || serial.Truncated != par.Truncated {
			t.Errorf("C%d: serial %v vs workers=4 %v", n, serial, par)
		}
	}
}

func TestExploreWorkersViolationDedup(t *testing.T) {
	// Every terminal state violates; the parallel merge must count each
	// violating state once even though several workers reach it.
	inv := func(e *sim.Engine[core.FiveVal]) error {
		if e.AllDone() {
			return errAllDone
		}
		return nil
	}
	opt := model.Options{SingletonsOnly: true, MaxViolations: 1 << 20}
	serial := model.Explore(fiveEngine(t, 4), opt, inv)
	opt.Workers = 4
	par := model.Explore(fiveEngine(t, 4), opt, inv)
	if len(serial.Violations) != serial.Terminal {
		t.Fatalf("serial: %d violations for %d terminal states", len(serial.Violations), serial.Terminal)
	}
	if len(par.Violations) != len(serial.Violations) {
		t.Errorf("workers=4 recorded %d violations, serial %d", len(par.Violations), len(serial.Violations))
	}
	if par.ViolationWitness == nil {
		t.Error("parallel merge dropped the violation witness")
	}
}

var errAllDone = errTerminal{}

type errTerminal struct{}

func (errTerminal) Error() string { return "terminal state reached" }

func TestExploreWorkersFindCycle(t *testing.T) {
	// Greedy MIS livelocks on C3; the parallel frontier must find a cycle
	// too, and its certificate must replay to an actual loop.
	mk := func() *sim.Engine[mis.Val] {
		e, err := sim.NewEngine(graph.MustCycle(3), mis.NewGreedyNodes([]int{0, 1, 2}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	serial := model.Explore(mk(), model.Options{SingletonsOnly: true}, nil)
	par := model.Explore(mk(), model.Options{SingletonsOnly: true, Workers: 4}, nil)
	if !serial.CycleFound || !par.CycleFound {
		t.Fatalf("cycle: serial %t, workers=4 %t", serial.CycleFound, par.CycleFound)
	}
	if serial.States != par.States {
		t.Errorf("states: serial %d, workers=4 %d", serial.States, par.States)
	}
	// Replay the parallel certificate: prefix reaches a configuration from
	// which the loop returns to itself.
	e := mk()
	for _, s := range par.CyclePrefix {
		e.Step(s)
	}
	before := e.Fingerprint()
	if len(par.CycleLoop) == 0 {
		t.Fatal("empty cycle loop")
	}
	for _, s := range par.CycleLoop {
		e.Step(s)
	}
	if e.Fingerprint() != before {
		t.Error("cycle certificate does not replay to a loop")
	}
}

func TestWorstActivationsHashVsString(t *testing.T) {
	for _, n := range []int{3, 4} {
		vecH, okH, repH := model.WorstActivations(fiveEngine(t, n), model.Options{SingletonsOnly: true})
		vecS, okS, repS := model.WorstActivations(fiveEngine(t, n), model.Options{SingletonsOnly: true, StringFingerprints: true})
		if okH != okS || repH.States != repS.States {
			t.Fatalf("C%d: hash (ok=%t, %v) vs string (ok=%t, %v)", n, okH, repH, okS, repS)
		}
		for i := range vecH {
			if vecH[i] != vecS[i] {
				t.Errorf("C%d: worst-case vectors differ: %v vs %v", n, vecH, vecS)
				break
			}
		}
	}
}

func TestFairlyTerminatesHashVsString(t *testing.T) {
	mk := func() *sim.Engine[mis.Val] {
		e, err := sim.NewEngine(graph.MustCycle(3), mis.NewGreedyNodes([]int{0, 1, 2}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	descH, repH := model.FairlyTerminates(mk(), model.Options{SingletonsOnly: true})
	descS, repS := model.FairlyTerminates(mk(), model.Options{SingletonsOnly: true, StringFingerprints: true})
	if (descH == "") != (descS == "") || repH.States != repS.States {
		t.Errorf("hash (%q, %v) vs string (%q, %v)", descH, repH, descS, repS)
	}
}

// TestExploreTypedVsInstance: Explore on a typed engine and ExploreInstance
// on the same engine behind sim.InstanceOf produce identical reports,
// violations and witnesses included.
func TestExploreTypedVsInstance(t *testing.T) {
	// Flag terminal states where processes 0 and 2 agree: plenty of
	// violations, so witnesses and the violation list are compared too.
	check := func(e interface {
		AllDone() bool
		Result() sim.Result
	}) error {
		if r := e.Result(); e.AllDone() && r.Outputs[0] == r.Outputs[2] {
			return fmt.Errorf("outputs 0 and 2 agree on %d", r.Outputs[0])
		}
		return nil
	}
	rows := []struct {
		alg  string
		n    int
		opt  model.Options
		five bool
	}{
		{"five", 3, model.Options{SingletonsOnly: true}, true},
		{"five", 4, model.Options{SingletonsOnly: true}, true},
		{"five", 5, model.Options{SingletonsOnly: true}, true},
		{"five", 4, model.Options{}, true},
		{"fast", 3, model.Options{SingletonsOnly: true}, false},
		{"fast", 4, model.Options{SingletonsOnly: true}, false},
		{"fast", 5, model.Options{SingletonsOnly: true}, false},
		{"fast", 5, model.Options{SingletonsOnly: true, MaxStates: 300}, false},
	}
	for _, row := range rows {
		xs := ids.MustGenerate(ids.Increasing, row.n, 0)
		var typed, erased model.Report
		if row.five {
			mk := func() *sim.Engine[core.FiveVal] {
				e, err := sim.NewEngine(graph.MustCycle(row.n), core.NewFiveNodes(xs))
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			typed = model.Explore(mk(), row.opt, func(e *sim.Engine[core.FiveVal]) error { return check(e) })
			erased = model.ExploreInstance(sim.InstanceOf(mk()), row.opt, func(i sim.Instance) error { return check(i) })
		} else {
			mk := func() *sim.Engine[core.FastVal] {
				e, err := sim.NewEngine(graph.MustCycle(row.n), core.NewFastNodes(xs))
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			typed = model.Explore(mk(), row.opt, func(e *sim.Engine[core.FastVal]) error { return check(e) })
			erased = model.ExploreInstance(sim.InstanceOf(mk()), row.opt, func(i sim.Instance) error { return check(i) })
		}
		if !reflect.DeepEqual(typed, erased) {
			t.Errorf("%s C%d %+v: typed %v vs instance %v", row.alg, row.n, row.opt, typed, erased)
		}
	}
}

// TestDecoupledTablesAgree: the type-erased DECOUPLED engine gets the same
// state tables and strategies as the typed engines; every variant agrees
// on the depth-bounded state and terminal counts.
func TestDecoupledTablesAgree(t *testing.T) {
	d, err := protocol.Lookup("decoupled-three")
	if err != nil {
		t.Fatal(err)
	}
	xs := []int{0, 1, 2, 3}
	variants := []struct {
		name string
		opt  model.Options
	}{
		{"hashed", model.Options{}},
		{"string", model.Options{StringFingerprints: true}},
		{"workers=2", model.Options{Workers: 2}},
		{"spill", model.Options{SpillDir: t.TempDir(), SpillMemLimit: 64}},
	}
	for depth := 2; depth <= 3; depth++ {
		var base model.Report
		for i, v := range variants {
			v.opt.MaxDepth = depth
			rep, err := d.Check(xs, sim.ModeInterleaved, v.opt)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				base = rep
				continue
			}
			if rep.States != base.States || rep.Terminal != base.Terminal || len(rep.Violations) != len(base.Violations) {
				t.Errorf("C4 depth %d: %s %v vs hashed %v", depth, v.name, rep, base)
			}
		}
		if base.States == 0 || !base.Truncated {
			t.Errorf("C4 depth %d: hashed baseline %v is not a depth-cut exploration", depth, base)
		}
	}
}
