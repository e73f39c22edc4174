package model_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"asynccycle/internal/model"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
	"asynccycle/internal/ssuni"
)

// gateNode terminates only after seeing a neighbor's register present — so
// it cannot finish solo from a fresh start (not obstruction-free), but any
// fair schedule terminates it.
type gateNode struct{ rounds int }

func (g *gateNode) Publish() int { return g.rounds }

func (g *gateNode) Observe(view []sim.Cell[int]) sim.Decision {
	g.rounds++
	for _, c := range view {
		if c.Present {
			return sim.Decision{Return: true, Output: 0}
		}
	}
	return sim.Decision{}
}

func (g *gateNode) Clone() sim.Node[int] {
	cp := *g
	return &cp
}

func TestObstructionFreeHolds(t *testing.T) {
	nodes := []sim.Node[int]{&stepNode{Rounds: 2}, &stepNode{Rounds: 2}, &stepNode{Rounds: 2}}
	counter, rep := model.ObstructionFree(engineWith(t, nodes), model.Options{SingletonsOnly: true}, 5)
	if counter != "" {
		t.Fatalf("counterexample on a wait-free toy: %s", counter)
	}
	if rep.States == 0 {
		t.Fatal("nothing explored")
	}
}

func TestObstructionFreeFindsCounterexample(t *testing.T) {
	nodes := []sim.Node[int]{loopNode{}, loopNode{}, loopNode{}}
	counter, _ := model.ObstructionFree(engineWith(t, nodes), model.Options{SingletonsOnly: true}, 10)
	if counter == "" {
		t.Fatal("no counterexample for a livelocked toy")
	}
	if !strings.Contains(counter, "solo") {
		t.Errorf("unexpected counterexample text %q", counter)
	}
}

func TestGateNodeNotObstructionFreeButFair(t *testing.T) {
	// From the initial configuration (all registers ⊥) a solo gateNode
	// spins forever; under fair schedules the first two steps of any two
	// distinct processes unblock each other.
	nodes := []sim.Node[int]{&gateNode{}, &gateNode{}, &gateNode{}}
	counter, _ := model.ObstructionFree(engineWith(t, nodes), model.Options{SingletonsOnly: true, MaxStates: 50_000}, 10)
	if counter == "" {
		t.Fatal("gateNode should fail obstruction-freedom from the ⊥ start")
	}

	nodes2 := []sim.Node[int]{&gateNode{}, &gateNode{}, &gateNode{}}
	desc, _ := model.FairlyTerminates(engineWith(t, nodes2), model.Options{SingletonsOnly: true, MaxStates: 50_000})
	if desc != "" {
		t.Fatalf("gateNode should be starvation-free, found: %s", desc)
	}
}

func TestFairlyTerminatesHoldsForWaitFree(t *testing.T) {
	nodes := []sim.Node[int]{&stepNode{Rounds: 3}, &stepNode{Rounds: 3}, &stepNode{Rounds: 3}}
	desc, rep := model.FairlyTerminates(engineWith(t, nodes), model.Options{SingletonsOnly: true})
	if desc != "" {
		t.Fatalf("fair livelock on a wait-free toy: %s", desc)
	}
	if rep.Truncated {
		t.Fatal("truncated on a tiny instance")
	}
}

func TestFairlyTerminatesFindsFairLivelock(t *testing.T) {
	// loopNodes spin forever under *every* schedule, including fair ones:
	// the self-loop component activates every working process.
	nodes := []sim.Node[int]{loopNode{}, loopNode{}, loopNode{}}
	desc, rep := model.FairlyTerminates(engineWith(t, nodes), model.Options{SingletonsOnly: true})
	if desc == "" {
		t.Fatal("no fair livelock found for loopNodes")
	}
	if !rep.CycleFound {
		t.Error("report should flag the cycle")
	}
}

// starveNode spins until process 0's register shows a value ≥ 1, which
// requires process 0 to take two steps; process 0 itself is a plain
// stepNode that terminates quickly. This creates livelock cycles that are
// all *unfair* (they starve process 0), so FairlyTerminates must find no
// fair component even though Explore finds cycles.
type starveNode struct{ fed bool }

func (s *starveNode) Publish() int { return 0 }

func (s *starveNode) Observe(view []sim.Cell[int]) sim.Decision {
	for _, c := range view {
		if c.Present && c.Val >= 1 {
			return sim.Decision{Return: true, Output: 1}
		}
	}
	return sim.Decision{}
}

func (s *starveNode) Clone() sim.Node[int] {
	cp := *s
	return &cp
}

func TestUnfairOnlyLivelockDistinguished(t *testing.T) {
	nodes := []sim.Node[int]{&stepNode{Rounds: 2}, &starveNode{}, &starveNode{}}
	rep := model.Explore(engineWith(t, nodes), model.Options{SingletonsOnly: true}, nil)
	if !rep.CycleFound {
		t.Fatal("expected unfair livelock cycles (starvers spinning)")
	}
	nodes2 := []sim.Node[int]{&stepNode{Rounds: 2}, &starveNode{}, &starveNode{}}
	desc, _ := model.FairlyTerminates(engineWith(t, nodes2), model.Options{SingletonsOnly: true})
	if desc != "" {
		t.Fatalf("livelock should be unfair-only, found: %s", desc)
	}
}

// ssuniZeros is the self-stabilizing coloring on C_n from the all-zero
// start; unbudgeted, its state graph on C7 takes seconds to build.
func ssuniZeros(t *testing.T, n int) *sim.Engine[int] {
	t.Helper()
	e, err := ssuni.NewEngine(make([]int, n))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestStateGraphAnalysesStop: the state-graph analyses poll the context
// and the budget like every other traversal, returning promptly with a
// PARTIAL report that names the stop.
func TestStateGraphAnalysesStop(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	stops := []struct {
		name string
		opt  model.Options
		want runctl.StopReason
	}{
		{"cancelled", model.Options{Context: cancelled}, runctl.StopCancelled},
		{"timeout", model.Options{Budget: runctl.Budget{Timeout: 5 * time.Millisecond}}, runctl.StopTimeout},
	}
	analyses := []struct {
		name string
		run  func(model.Options) model.Report
	}{
		{"stabilization", func(o model.Options) model.Report {
			return model.CheckStabilization(ssuniZeros(t, 7), o, ssuni.Legal).Explore
		}},
		{"fair-termination", func(o model.Options) model.Report {
			_, rep := model.FairlyTerminates(ssuniZeros(t, 7), o)
			return rep
		}},
	}
	for _, st := range stops {
		for _, a := range analyses {
			start := time.Now()
			rep := a.run(st.opt)
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("%s %s: took %s to stop", a.name, st.name, took)
			}
			if !rep.Partial || rep.StopReason != st.want || !rep.Truncated {
				t.Errorf("%s %s: want truncated PARTIAL(%s), got %s", a.name, st.name, st.want, rep)
			}
		}
	}
}

// TestStateGraphMaxStatesIsPartial: a MaxStates cut marks the state-graph
// reports PARTIAL, in both summary forms.
func TestStateGraphMaxStatesIsPartial(t *testing.T) {
	opt := model.Options{MaxStates: 100}
	sr := model.CheckStabilization(ssuniZeros(t, 5), opt, ssuni.Legal)
	if !strings.Contains(sr.String(), "[PARTIAL: max-states]") || !strings.Contains(sr.Explore.String(), "[PARTIAL: max-states]") {
		t.Errorf("stabilization cut by MaxStates: %s / %s", sr, sr.Explore)
	}
	if sr.OK() {
		t.Error("a cut stabilization check claimed a certificate")
	}
	_, rep := model.FairlyTerminates(ssuniZeros(t, 5), opt)
	if !strings.Contains(rep.String(), "[PARTIAL: max-states]") {
		t.Errorf("fair termination cut by MaxStates: %s", rep)
	}
}
