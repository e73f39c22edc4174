package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"asynccycle/internal/core"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// certify is the exhaustive-certificate workload: each op model-checks one
// identifier assignment through a protocol descriptor, covering the four
// depth-first searches of internal/model plus the out-of-core visited set
// and the parallel frontier.
//
//	explore    five/fast Check on C5          → explorer.dfs
//	worst      five/fast Worst on C5          → worst.dfs
//	stabilize  ssuni Sweep on C3              → buildStateGraph
//	instance   decoupled-three Check on C5    → instExplorer.dfs
//	spill      explore with a tiny RAM budget → internal/ooc
//	frontier   explore with Workers: 2        → parallel frontier
var certifyKinds = []string{"explore", "worst", "stabilize", "instance", "spill", "frontier"}

const (
	// instanceDepth bounds the decoupled-three check; its tick counter makes
	// the state graph infinite, so the report is always truncated. At this
	// depth every C5 assignment reaches the same pinned state count.
	instanceDepth    = 2
	instanceStates   = 728
	instanceTerminal = 0
	// spillMemLimit is small enough that every spill op writes several
	// sorted runs to disk.
	spillMemLimit = 256
	// stabilizeN is the ring the ssuni sweep covers (all 3^n initial
	// states); its totals are pinned below.
	stabilizeN       = 3
	stabilizeStates  = 213
	stabilizeRuns    = 27
	spillSampleEvery = 256
	certifyIDSpan    = 64
	certifyRounds    = 2
)

type certAsg struct {
	d  *protocol.Descriptor
	xs []int
}

type certOp struct {
	kind string
	asg  int
}

type certPin struct{ states, terminal int }

type certify struct {
	spillRoot string

	c5   []certAsg // explore/worst/spill/frontier assignments
	dt   []certAsg // decoupled-three assignments
	ss   *protocol.Descriptor
	ops  []certOp
	pins []certPin // per c5 assignment

	// Traced-phase aggregates.
	node       sampler // sampled Publish/Observe across all traced ops
	invCalls   atomic.Int64
	invNS      atomic.Int64
	serialNS   int64 // traced explore/worst/spill call time
	serialNode int64 // node calls inside those calls
	serialInv  int64 // invariant ns inside those calls
	spillPeak  atomic.Int64
	spilling   atomic.Bool
}

func (c *certify) name() string          { return "certify" }
func (c *certify) clients() int          { return 1 }
func (c *certify) kinds() []string       { return certifyKinds }
func (c *certify) numOps() int           { return len(c.ops) }
func (c *certify) setupReps() int        { return 5 }
func (c *certify) opsPerSecond() float64 { return 50 }
func (c *certify) teardown()             {}

func (c *certify) setup(seed int64) error {
	rng := newRand(seed, 1)
	five, err := protocol.Lookup("five")
	if err != nil {
		return err
	}
	fast, err := protocol.Lookup("fast")
	if err != nil {
		return err
	}
	dt, err := protocol.Lookup("decoupled-three")
	if err != nil {
		return err
	}
	if c.ss, err = protocol.Lookup("ssuni"); err != nil {
		return err
	}
	// Every dihedral order class of C5, once under five and once under
	// fast, with seed-drawn identifier values.
	c.c5 = c.c5[:0]
	for _, d := range []*protocol.Descriptor{five, fast} {
		for _, ranks := range cyclicOrders(5) {
			a := certAsg{d: d, xs: idsForOrder(rng, ranks, certifyIDSpan)}
			if err := d.ValidateIDs(a.xs); err != nil {
				return err
			}
			c.c5 = append(c.c5, a)
		}
	}
	c.dt = c.dt[:0]
	for _, ranks := range cyclicOrders(5) {
		a := certAsg{d: dt, xs: idsForOrder(rng, ranks, certifyIDSpan)}
		if err := dt.ValidateIDs(a.xs); err != nil {
			return err
		}
		c.dt = append(c.dt, a)
	}
	// One round pairs every C5 assignment with each kind; instance and
	// stabilize ops take the same share. Two shuffled rounds form the
	// sequence, which then repeats.
	c.ops = c.ops[:0]
	for r := 0; r < certifyRounds; r++ {
		var round []certOp
		for i := range c.c5 {
			for _, k := range certifyKinds {
				round = append(round, certOp{kind: k, asg: i})
			}
		}
		for _, j := range rng.Perm(len(round)) {
			c.ops = append(c.ops, round[j])
		}
	}
	if err := os.MkdirAll(c.spillRoot, 0o755); err != nil {
		return err
	}
	// Warm-up: one op of each kind.
	for _, k := range certifyKinds {
		if r := c.run(certOp{kind: k}, nil); r.err != nil {
			return fmt.Errorf("warm-up %s: %w", k, r.err)
		}
	}
	return nil
}

// pin computes the reference counts of the five/fast assignments with the
// exact string-fingerprint tables, the checker's test oracle.
func (c *certify) pin() error {
	c.pins = c.pins[:0]
	for _, a := range c.c5 {
		rep, err := a.d.Check(a.xs, sim.ModeInterleaved, model.Options{SingletonsOnly: true, StringFingerprints: true})
		if err != nil {
			return err
		}
		if err := cleanReport(rep, false); err != nil {
			return fmt.Errorf("oracle %s %v: %w", a.d.Name, a.xs, err)
		}
		c.pins = append(c.pins, certPin{rep.States, rep.Terminal})
	}
	return nil
}

// cleanReport is the per-report gate: no violation, no cycle, and no
// truncation or PARTIAL — except that a depth-bounded check must be cut
// by its depth bound and by nothing else.
func cleanReport(rep model.Report, depthBounded bool) error {
	switch {
	case len(rep.Violations) > 0:
		return fmt.Errorf("violation: %s", rep.Violations[0])
	case rep.CycleFound:
		return fmt.Errorf("non-termination cycle found")
	case rep.Truncated != depthBounded:
		return fmt.Errorf("truncated=%t, want %t", rep.Truncated, depthBounded)
	case rep.Partial && !(depthBounded && rep.StopReason == runctl.StopMaxDepth):
		return fmt.Errorf("PARTIAL: %s", rep.StopReason)
	}
	return nil
}

func (c *certify) op(i int, tr *tracer) opResult { return c.run(c.ops[i], tr) }

func (c *certify) run(o certOp, tr *tracer) opResult {
	r := opResult{kind: o.kind}
	var rep model.Report
	var err error
	switch o.kind {
	case "stabilize":
		var sr model.SweepReport
		tr.layer("protocol.Sweep[ssuni]", func() {
			sr, err = c.ss.Sweep(stabilizeN, sim.ModeInterleaved, model.Options{})
		})
		if err == nil && (!sr.AllOk || sr.Partial || sr.Violations != 0 || sr.CycleRuns != 0 ||
			sr.States != stabilizeStates || sr.Runs != stabilizeRuns) {
			err = fmt.Errorf("ssuni sweep C%d: %s, want states=%d runs=%d allok", stabilizeN, sr, stabilizeStates, stabilizeRuns)
		}
		r.work = sr.States
		r.counts = fmt.Sprintf("states=%d terminal=%d runs=%d", sr.States, sr.Terminal, sr.Runs)
		r.err = err
		return r
	case "instance":
		k := o.asg % len(c.dt)
		a := c.dt[k]
		tr.layer("protocol.Check[decoupled-three]", func() {
			rep, err = a.d.Check(a.xs, sim.ModeInterleaved, model.Options{MaxDepth: instanceDepth})
		})
		if err == nil {
			err = cleanReport(rep, true)
		}
		if err == nil && (rep.States != instanceStates || rep.Terminal != instanceTerminal) {
			err = fmt.Errorf("states/terminal %d/%d, pinned %d/%d", rep.States, rep.Terminal, instanceStates, instanceTerminal)
		}
	default:
		a := c.c5[o.asg]
		opt := model.Options{SingletonsOnly: true}
		switch o.kind {
		case "spill":
			opt.SpillDir, opt.SpillMemLimit = c.spillRoot, spillMemLimit
		case "frontier":
			opt.Workers = 2
		}
		var worst []int
		ok := true
		if tr == nil {
			if o.kind == "worst" {
				worst, ok, rep, err = a.d.Worst(a.xs, sim.ModeInterleaved, opt)
			} else {
				rep, err = a.d.Check(a.xs, sim.ModeInterleaved, opt)
			}
		} else {
			worst, ok, rep, err = c.tracedCheck(o.kind, a, opt, tr)
		}
		if err == nil {
			err = c.gate(rep, o.asg)
		}
		if err == nil && o.kind == "worst" {
			err = worstGate(a, worst, ok)
		}
	}
	if err != nil {
		r.err = fmt.Errorf("%s: %w", o.kind, err)
	}
	r.work = int64(rep.States)
	r.counts = fmt.Sprintf("states=%d terminal=%d collisions=%d", rep.States, rep.Terminal, rep.HashCollisions)
	return r
}

func (c *certify) gate(rep model.Report, asg int) error {
	if err := cleanReport(rep, false); err != nil {
		return err
	}
	if asg >= len(c.pins) {
		return nil // a warm-up op, before pin()
	}
	if p := c.pins[asg]; rep.States != p.states || rep.Terminal != p.terminal {
		return fmt.Errorf("states/terminal %d/%d, pinned %d/%d", rep.States, rep.Terminal, p.states, p.terminal)
	}
	return nil
}

// worstGate checks the exact worst-case round vector against the
// protocol's wait-freedom bound.
func worstGate(a certAsg, worst []int, ok bool) error {
	if !ok {
		return fmt.Errorf("worst-case analysis not exhaustive")
	}
	bound := a.d.Bound(len(a.xs))
	for i, w := range worst {
		if w > bound {
			return fmt.Errorf("process %d needs %d rounds, bound %d", i, w, bound)
		}
	}
	return nil
}

// tracedCheck runs the same analysis the descriptor's Check/Worst runs,
// with node wrappers around the protocol's state machines and a timed
// invariant, so node and contract time can be subtracted from the
// checker's own.
func (c *certify) tracedCheck(kind string, a certAsg, opt model.Options, tr *tracer) ([]int, bool, model.Report, error) {
	var worst []int
	ok := true
	var rep model.Report
	var err error
	calls0, inv0 := c.node.calls.Load(), c.invNS.Load()
	c.spilling.Store(kind == "spill")
	name := "model.Explore[" + kind + "]"
	if kind == "worst" {
		name = "model.WorstActivations"
	}
	d := tr.layer(name, func() {
		switch a.d.Name {
		case "five":
			worst, ok, rep, err = explore(c, core.NewFiveNodes, a, opt, kind == "worst", tr)
		case "fast":
			worst, ok, rep, err = explore(c, core.NewFastNodes, a, opt, kind == "worst", tr)
		default:
			err = fmt.Errorf("no node factory for %s", a.d.Name)
		}
	})
	c.spilling.Store(false)
	if kind != "frontier" {
		c.serialNS += int64(d)
		c.serialNode += c.node.calls.Load() - calls0
		c.serialInv += c.invNS.Load() - inv0
	}
	return worst, ok, rep, err
}

func explore[V any](c *certify, newNodes func([]int) []sim.Node[V], a certAsg, opt model.Options, worst bool, tr *tracer) ([]int, bool, model.Report, error) {
	g, err := a.d.Topology(len(a.xs))
	if err != nil {
		return nil, false, model.Report{}, err
	}
	e, err := sim.NewEngine(g, wrapNodes(newNodes(a.xs), &c.node, tr))
	if err != nil {
		return nil, false, model.Report{}, err
	}
	e.SetMode(sim.ModeInterleaved)
	if worst {
		w, ok, rep := model.WorstActivations(e, opt)
		return w, ok, rep, nil
	}
	safety := a.d.Validity
	inv := func(e *sim.Engine[V]) error {
		t0 := time.Now()
		err := safety(g, e.Result())
		dur := since(t0)
		n := c.invCalls.Add(1)
		c.invNS.Add(int64(dur))
		if n%sampleEvery == 0 {
			tr.record("contract.Safety", t0, dur)
		}
		if c.spilling.Load() && n%spillSampleEvery == 0 {
			if b := dirBytes(c.spillRoot); b > c.spillPeak.Load() {
				c.spillPeak.Store(b)
			}
		}
		return err
	}
	return nil, true, model.Explore(e, opt, inv), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil {
			return nil // a spill run removed mid-walk is simply not counted
		}
		if de.Type().IsRegular() {
			if info, err := de.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

func (c *certify) layers(a, _ *phase, m map[string]metric) error {
	p50 := map[string]float64{}
	for _, k := range certifyKinds {
		v, err := kindP50(a, k)
		if err != nil {
			return fmt.Errorf("%w (%s)", err, joinKinds(a, certifyKinds))
		}
		p50[k] = v
		m["certify."+k+".p50_ms"] = metric{v, "ms"}
	}
	var states, terminal, collisions, ops int64
	for _, cnt := range a.counts {
		var s, t, h int64
		if _, err := fmt.Sscanf(cnt, "states=%d terminal=%d collisions=%d", &s, &t, &h); err == nil {
			states, terminal, collisions = states+s, terminal+t, collisions+h
			ops++
		}
	}
	if ops == 0 {
		return fmt.Errorf("no model-checker ops to count")
	}
	m["certify.model.states_per_op"] = metric{float64(states) / float64(ops), "count"}
	m["certify.model.terminal_per_op"] = metric{float64(terminal) / float64(ops), "count"}
	m["certify.model.hash_collisions"] = metric{float64(collisions), "count"}
	nodeEst := c.node.meanNS() * float64(c.serialNode)
	if c.serialNS > 0 {
		m["certify.model.self_frac"] = metric{(float64(c.serialNS) - nodeEst - float64(c.serialInv)) / float64(c.serialNS), "1"}
	}
	m["certify.core.node_ns"] = metric{c.node.meanNS(), "ns"}
	if n := c.invCalls.Load(); n > 0 {
		m["certify.contract.safety_us"] = metric{float64(c.invNS.Load()) / float64(n) / 1e3, "us"}
	}
	m["certify.ooc.spill_overhead_ms"] = metric{p50["spill"] - p50["explore"], "ms"}
	m["certify.ooc.spill_dir_mb"] = metric{float64(c.spillPeak.Load()) / (1 << 20), "MB"}
	m["certify.model.frontier_speedup"] = metric{p50["explore"] / p50["frontier"], "1"}
	return nil
}
