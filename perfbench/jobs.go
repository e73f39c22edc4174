package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"asynccycle/internal/fuzzsched"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/serve"
	"asynccycle/internal/sim"
)

// jobsWL executes colorserved's job mix in-process: the same
// seed-generated specs the serve workload posts, run through the public
// surfaces a colorserved worker calls — descriptor Run with an
// internal/schedule scheduler, descriptor Check, fuzzsched.Campaign — by
// one closed-loop caller, which times each job without a second one
// competing for the two cores. It leaves out internal/serve itself (HTTP,
// validation, the job queue and table), so internal/sim with
// internal/schedule, internal/fuzzsched and internal/model do all of its
// work; bigsim does none.
type jobsWL struct {
	specs []serve.JobSpec
	warm  []serve.JobSpec
	descs map[string]*protocol.Descriptor
	// pins holds the oracle state/terminal counts of every check spec,
	// keyed by "alg/n".
	pins map[string]certPin

	// Traced-run aggregates: time inside the scheduler wrapper and inside
	// the traced run ops that called it.
	decodeNS atomic.Int64
	runNS    atomic.Int64
}

var jobKinds = []string{"run", "check", "fuzz"}

func (j *jobsWL) name() string          { return "jobs" }
func (j *jobsWL) clients() int          { return 1 }
func (j *jobsWL) kinds() []string       { return jobKinds }
func (j *jobsWL) numOps() int           { return len(j.specs) }
func (j *jobsWL) setupReps() int        { return 15 }
func (j *jobsWL) opsPerSecond() float64 { return 4500 }
func (j *jobsWL) teardown()             {}

// setup generates the job sequence, resolves every algorithm in the
// registry, and runs one warm-up job of each (kind, algorithm, scheduler).
func (j *jobsWL) setup(seed int64) error {
	j.specs, j.warm = genJobs(seed)
	j.descs = map[string]*protocol.Descriptor{}
	for _, alg := range serveAlgs {
		d, err := protocol.Lookup(alg)
		if err != nil {
			return err
		}
		j.descs[alg] = d
	}
	for _, spec := range j.warm {
		if r := j.exec(spec, nil); r.err != nil {
			return fmt.Errorf("warm-up %s/%s: %w", spec.Kind, spec.Alg, r.err)
		}
	}
	return nil
}

// pin computes the state and terminal counts of every distinct check spec
// with the exact string-fingerprint tables, the checker's test oracle.
func (j *jobsWL) pin() error {
	j.pins = map[string]certPin{}
	for _, spec := range j.specs {
		key := fmt.Sprintf("%s/%d", spec.Alg, spec.N)
		if spec.Kind != serve.KindCheck {
			continue
		}
		if _, ok := j.pins[key]; ok {
			continue
		}
		d := j.descs[spec.Alg]
		opt := checkOptions(d)
		opt.StringFingerprints = true
		rep, err := d.Check(ids.MustGenerate(ids.Increasing, spec.N, 0), sim.ModeInterleaved, opt)
		if err != nil {
			return err
		}
		if err := cleanReport(rep, false); err != nil {
			return fmt.Errorf("oracle %s: %w", key, err)
		}
		j.pins[key] = certPin{rep.States, rep.Terminal}
	}
	return nil
}

func (j *jobsWL) op(i int, tr *tracer) opResult { return j.exec(j.specs[i], tr) }

// exec runs one job spec the way a colorserved worker executes it, and
// gates its output.
func (j *jobsWL) exec(spec serve.JobSpec, tr *tracer) opResult {
	r := opResult{kind: spec.Kind, work: 1}
	d := j.descs[spec.Alg]
	var err error
	switch spec.Kind {
	case serve.KindRun:
		err = j.run(d, spec, tr, &r)
	case serve.KindCheck:
		var rep model.Report
		tr.layer("protocol.Check["+spec.Alg+"]", func() {
			rep, err = d.Check(ids.MustGenerate(ids.Increasing, spec.N, 0), sim.ModeInterleaved, checkOptions(d))
		})
		if err == nil {
			err = cleanReport(rep, false)
		}
		key := fmt.Sprintf("%s/%d", spec.Alg, spec.N)
		if p, ok := j.pins[key]; err == nil && ok && (rep.States != p.states || rep.Terminal != p.terminal) {
			err = fmt.Errorf("states/terminal %d/%d, pinned %d/%d", rep.States, rep.Terminal, p.states, p.terminal)
		}
		r.counts = fmt.Sprintf("states=%d terminal=%d", rep.States, rep.Terminal)
	case serve.KindFuzz:
		var rep fuzzsched.Report
		tr.layer("fuzzsched.Campaign["+spec.Alg+"]", func() {
			rep, err = fuzzsched.Campaign(context.Background(), fuzzsched.Config{
				Alg: spec.Alg, Mode: sim.ModeInterleaved, Seed: spec.Seed, Campaign: spec.Campaign, Workers: 1,
			})
		})
		switch {
		case err != nil:
		case len(rep.Violations) > 0 || len(rep.Divergences) > 0 || rep.Partial || rep.Schedules != spec.Campaign:
			err = fmt.Errorf("fuzz: %s", rep)
		}
		r.counts = fmt.Sprintf("schedules=%d states=%d", rep.Schedules, rep.StatesSeen)
	default:
		err = fmt.Errorf("unknown job kind %q", spec.Kind)
	}
	if err != nil {
		r.err = fmt.Errorf("%s %s n=%d seed=%d: %w", spec.Kind, spec.Alg, spec.N, spec.Seed, err)
	}
	return r
}

// checkOptions are the model options colorserved gives a check job:
// singleton schedules for protocols with interleaved semantics, and the
// descriptor's default depth.
func checkOptions(d *protocol.Descriptor) model.Options {
	return model.Options{SingletonsOnly: len(d.Modes) > 0, MaxDepth: d.DefaultCheckDepth}
}

// run executes one sim run job — random identifiers, colorserved's
// deterministic crash plan and step cap — and checks every verdict and
// the round bound.
func (j *jobsWL) run(d *protocol.Descriptor, spec serve.JobSpec, tr *tracer, r *opResult) error {
	g, err := d.Topology(spec.N)
	if err != nil {
		return err
	}
	xs, err := ids.Generate(ids.Random, spec.N, spec.Seed)
	if err != nil {
		return err
	}
	sched, err := schedule.Parse(spec.Sched, spec.Seed)
	if err != nil {
		return err
	}
	var ts *tracedSchedule
	if tr != nil {
		ts = &tracedSchedule{inner: sched}
		sched = ts
	}
	maxSteps := 1000*g.N() + 100_000
	var res sim.Result
	var reason runctl.StopReason
	dur := tr.layer("protocol.Run["+spec.Alg+"/"+spec.Sched+"]", func() {
		res, reason, err = d.Run(xs, protocol.RunOptions{
			Scheduler: sched,
			Mode:      sim.ModeInterleaved,
			Crashes:   crashPlan(spec.Crash, g.N(), spec.Seed),
			MaxSteps:  maxSteps,
			Context:   context.Background(),
			Budget:    runctl.Budget{MaxSteps: maxSteps},
		})
	})
	if ts != nil {
		j.decodeNS.Add(ts.ns)
		j.runNS.Add(int64(dur))
	}
	if err != nil {
		return err
	}
	if reason != runctl.StopNone {
		return fmt.Errorf("PARTIAL: %s", reason)
	}
	crashed := 0
	for _, c := range res.Crashed {
		if c {
			crashed++
		}
	}
	if d.Bound != nil && res.MaxActivations() > d.Bound(g.N()) {
		return fmt.Errorf("%d rounds exceed the bound %d", res.MaxActivations(), d.Bound(g.N()))
	}
	r.counts = fmt.Sprintf("steps=%d terminated=%d crashed=%d maxrounds=%d outputs=%v",
		res.Steps, res.TerminatedCount(), crashed, res.MaxActivations(), res.Outputs)
	return verdicts(d, g, res)
}

// verdicts applies the checks colorserved reports for a run: the labeled
// contract properties, else the named checks, else Validity.
func verdicts(d *protocol.Descriptor, g graph.Graph, res sim.Result) error {
	switch {
	case d.Contract != nil && d.Contract.Labeled():
		for _, p := range d.Contract.Properties() {
			if err := p.Check(g, res); err != nil {
				return fmt.Errorf("property %s: %w", p.Name, err)
			}
		}
	case d.Checks != nil:
		for _, c := range d.Checks(g) {
			if err := c.Check(res); err != nil {
				return fmt.Errorf("check %s: %w", c.Name, err)
			}
		}
	case d.Validity != nil:
		return d.Validity(g, res)
	default:
		return fmt.Errorf("%s has no verdicts", d.Name)
	}
	return nil
}

// crashPlan is colorserved's deterministic crash plan: the first
// frac·n of the nodes i·7919+seed (mod n) crash after i mod 5 rounds.
func crashPlan(frac float64, n int, seed int64) map[int]int {
	crashes := map[int]int{}
	for i := 0; i < int(frac*float64(n)); i++ {
		crashes[(i*7919+int(seed))%n] = i % 5
	}
	return crashes
}

// tracedSchedule times every decode of the wrapped internal/schedule
// scheduler. The sim engine calls its scheduler from one goroutine.
type tracedSchedule struct {
	inner schedule.Scheduler
	ns    int64
}

func (s *tracedSchedule) Name() string { return s.inner.Name() }

func (s *tracedSchedule) Next(st schedule.State) []int {
	t0 := time.Now()
	out := s.inner.Next(st)
	s.ns += int64(since(t0))
	return out
}

func (j *jobsWL) layers(a, _ *phase, m map[string]metric) error {
	p99, err := percentile(a.latMS, 0.99)
	if err != nil {
		return fmt.Errorf("latency p99: %w", err)
	}
	m["jobs.latency_p99_ms"] = metric{p99, "ms"}
	for _, x := range []struct{ kind, name string }{
		{"run", "jobs.sim.run_exec_p50_ms"},
		{"check", "jobs.model.check_exec_p50_ms"},
		{"fuzz", "jobs.fuzzsched.fuzz_exec_p50_ms"},
	} {
		v, err := kindP50(a, x.kind)
		if err != nil {
			return fmt.Errorf("%w (%s)", err, joinKinds(a, jobKinds))
		}
		m[x.name] = metric{v, "ms"}
	}
	var steps, runs int64
	for _, cnt := range a.counts {
		var s int64
		if _, err := fmt.Sscanf(cnt, "steps=%d", &s); err == nil {
			steps += s
			runs++
		}
	}
	if runs == 0 {
		return fmt.Errorf("no run jobs to count")
	}
	m["jobs.sim.steps_per_run"] = metric{float64(steps) / float64(runs), "count"}
	if ns := j.runNS.Load(); ns > 0 {
		m["jobs.schedule.decode_frac"] = metric{float64(j.decodeNS.Load()) / float64(ns), "1"}
	}
	return nil
}
