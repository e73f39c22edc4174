// Package model is a bounded model checker for the simulation engine: it
// exhaustively explores every schedule of an algorithm on a small instance,
// deduplicating configurations by fingerprint.
//
// Because a crash is just a schedule that stops activating a process, crash
// tolerance does not need separate branches: checking the safety invariant
// at *every* reachable configuration covers every crash pattern (the
// execution in which everyone else crashes "now" ends in exactly that
// configuration).
//
// Wait-freedom is checked two ways. First, a cycle in the reachable
// configuration graph (every transition activates at least one working
// process) is a certificate of an infinite execution in which some process
// takes infinitely many rounds without terminating — i.e. the algorithm is
// not wait-free; Explore detects such cycles. Second, WorstActivations
// computes, by memoized longest-path analysis over the acyclic
// configuration graph, the exact supremum of per-process activation counts
// over all schedules — the paper's running-time measure (§2.2).
package model

import (
	"context"
	"fmt"

	"asynccycle/internal/metrics"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// Options bound the exploration.
type Options struct {
	// MaxDepth bounds schedule length (steps from the initial
	// configuration). 0 means DefaultMaxDepth.
	MaxDepth int
	// MaxStates bounds the number of distinct configurations explored.
	// 0 means DefaultMaxStates.
	MaxStates int
	// SingletonsOnly restricts σ(t) to single-process activations. The
	// general model allows arbitrary simultaneous sets, but for two-phase
	// write/read rounds the singleton schedules already generate every
	// reachable register interleaving up to observational equivalence on
	// most instances; full subset exploration is the default.
	SingletonsOnly bool
	// MaxViolations caps recorded invariant-violation messages.
	MaxViolations int
	// Workers > 1 makes Explore and ExploreInstance shard the root's
	// first-level activation subsets across that many workers, each
	// running an independent DFS with a private visited set; the
	// per-worker reports are merged by uniting their state-key sets, so
	// States and Terminal match the serial counts exactly. Workers <= 1
	// (the default) keeps the serial DFS; the other analyses are serial.
	// In parallel mode MaxStates is one shared budget on the combined
	// states explored across all workers (so a parallel run trips PARTIAL
	// under the same budget a serial run would, instead of exploring up to
	// Workers× the cap), and the order of recorded Violations may differ
	// from the serial order.
	Workers int
	// StringFingerprints forces the exact string-fingerprint state tables
	// used before compact hashing — slower and allocation-heavy, kept for
	// differential testing against the compact 128-bit tables.
	StringFingerprints bool
	// Symmetry selects reduction under the cycle's automorphism group (see
	// symmetry.go): SymmetryOff (default) is byte-identical to the
	// historical checker; SymmetryAssignments reduces sweep-level
	// identifier assignments only; SymmetryFull additionally keys the
	// state tables by canonical (rotation-minimal) fingerprints wherever
	// that is sound — Report.Symmetry records whether it actually engaged.
	Symmetry Symmetry
	// Context, when non-nil, cancels the exploration early: the checker
	// stops claiming new branches (polled every few hundred states, so
	// cancellation lands promptly) and returns the partial Report for the
	// region explored so far, labeled with a StopReason. A nil Context
	// leaves the hot path entirely unaffected.
	Context context.Context
	// Budget adds wall-clock and size bounds on top of the explicit
	// MaxDepth/MaxStates options: Budget.Timeout stops the run after that
	// much wall-clock, and Budget.MaxStates/Budget.MaxSteps tighten
	// MaxStates/MaxDepth when smaller (the smaller positive bound wins).
	Budget runctl.Budget
	// Metrics, when non-nil, receives live progress: States/Terminal
	// counters, FrontierDepth and VisitedSize gauges, HashCollisions. With
	// Workers > 1 every worker publishes into the same sink (counters sum
	// across workers; VisitedSize is the merged figure — total live
	// entries across all worker tables plus the shared root — not a
	// single worker's private table size).
	Metrics *metrics.Run

	// SpillDir, when non-empty, makes the visited set of Explore,
	// ExploreInstance and ObstructionFree out-of-core: once it outgrows
	// SpillMemLimit resident fingerprints, sorted 128-bit fingerprint runs
	// are spilled to a fresh subdirectory of SpillDir and membership is
	// resolved against the on-disk runs (see internal/ooc). State
	// identity is the full 128-bit fingerprint — exactly the in-RAM
	// compact tables' identity — so States, Terminal, and WeightedStates
	// are bit-identical to an in-RAM run. Ignored under StringFingerprints
	// (exact string tables cannot spill), with Workers > 1 (the parallel
	// merge keeps key sets in RAM, so spilling the visited probes would
	// not reduce the footprint), and by the analyses whose tables hold
	// values rather than a set (WorstActivations, FairlyTerminates,
	// CheckStabilization).
	SpillDir string
	// SpillMemLimit bounds resident visited fingerprints before a spill;
	// <= 0 selects ooc.DefaultMemLimit. Only meaningful with SpillDir.
	SpillMemLimit int

	// ShardIndex/ShardCount split an assignment sweep across processes:
	// with ShardCount > 1, SweepExplore explores only the orbit
	// representatives whose zero-based enumeration index ≡ ShardIndex
	// (mod ShardCount) and reports counts for that shard alone; shard
	// reports over a partition merge exactly via MergeSweepReports.
	ShardIndex int
	ShardCount int

	// SweepResume, when non-nil, resumes an interrupted sweep: every
	// assignment lexicographically ≤ Cursor is skipped (it was completed
	// and is already folded into Totals, which seed the cumulative
	// report). The sweep enumerates assignments deterministically, so a
	// resumed run's final report is bit-identical to an uninterrupted one.
	SweepResume *SweepResume
	// OnOrbitDone, when non-nil, is called after each completed (never
	// after a cancelled or timed-out) per-assignment exploration with the
	// assignment, its orbit weight, the per-run report, and the cumulative
	// sweep report so far — the checkpoint writer's hook. Returning an
	// error aborts the sweep with that error.
	OnOrbitDone func(assignment []int, weight int, run Report, cum SweepReport) error
}

// SweepResume carries the completed prefix of an interrupted sweep: the
// last completed assignment in lexicographic order and the cumulative
// totals over all completed assignments (cmd/modelcheck persists both via
// internal/ooc checkpoints).
type SweepResume struct {
	Cursor []int
	Totals SweepReport
}

// DefaultMaxDepth and DefaultMaxStates are generous bounds for n ≤ 5.
const (
	DefaultMaxDepth      = 256
	DefaultMaxStates     = 2_000_000
	defaultMaxViolations = 8
)

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = DefaultMaxDepth
	}
	if o.MaxStates <= 0 {
		o.MaxStates = DefaultMaxStates
	}
	if o.MaxViolations <= 0 {
		o.MaxViolations = defaultMaxViolations
	}
	// Budget bounds tighten the explicit options: smaller positive wins.
	o.MaxDepth = runctl.Min(o.MaxDepth, o.Budget.MaxSteps)
	o.MaxStates = runctl.Min(o.MaxStates, o.Budget.MaxStates)
	return o
}

// withTimeout folds Budget.Timeout into Options.Context so every layer
// (serial DFS, parallel workers, longest-path analysis) watches a single
// shared deadline. The returned cancel must be called to release the timer.
func (o Options) withTimeout() (Options, context.CancelFunc) {
	if o.Budget.Timeout <= 0 {
		return o, func() {}
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, o.Budget.Timeout)
	o.Context = ctx
	o.Budget.Timeout = 0
	return o, cancel
}

// Report summarizes an exploration.
type Report struct {
	// States is the number of distinct configurations visited. Under
	// within-run symmetry reduction (Symmetry == SymmetryFull) a
	// "configuration" is a rotation orbit, so States counts orbit
	// representatives; WeightedStates then recovers the unreduced total.
	States int
	// WeightedStates is the sum of exact rotation-orbit sizes over the
	// visited orbit representatives — the number of raw configurations in
	// the union of all rotated copies of the reachable set. Zero unless
	// Symmetry == SymmetryFull (keeping unreduced reports byte-identical).
	WeightedStates int64
	// Symmetry records the within-run reduction actually applied:
	// SymmetryFull only when requested *and* sound for the instance
	// (standard cycle; singleton sets or simultaneous mode), SymmetryOff
	// otherwise.
	Symmetry Symmetry
	// Terminal counts configurations in which every process terminated
	// (orbit representatives thereof under SymmetryFull).
	Terminal int
	// Truncated reports whether a depth or state bound cut exploration
	// short (results are then lower bounds, not exhaustive).
	Truncated bool
	// CycleFound reports whether a schedule loop was found along which
	// working processes are activated without terminating — a certificate
	// that the algorithm is not wait-free on this instance.
	CycleFound bool
	// CyclePrefix and CycleLoop, when CycleFound, form a concrete
	// replayable certificate: playing CyclePrefix from the initial
	// configuration reaches a configuration from which CycleLoop returns
	// to itself — repeating CycleLoop forever is an infinite execution
	// with working processes activated at every step. Under SymmetryFull
	// the loop returns to a *rotation* of its start (a quotient
	// certificate); iterating the loop with its activation sets rotated by
	// the accumulated shift each round still realizes an infinite
	// execution, and CycleFound itself agrees exactly with the unreduced
	// checker's verdict.
	CyclePrefix [][]int
	CycleLoop   [][]int
	// Violations holds the first few invariant-violation messages.
	Violations []string
	// ViolationWitness is the schedule reaching the first recorded
	// violation's configuration from the initial one.
	ViolationWitness [][]int
	// DeepestPath is the longest schedule explored (in steps).
	DeepestPath int
	// HashCollisions counts lane-A collisions of the compact-fingerprint
	// tables, each detected by the second hash lane and resolved exactly
	// through the full-string fallback (see fpset.go). Expected to be 0 on
	// every realistic instance; always 0 with Options.StringFingerprints.
	HashCollisions int
	// Partial reports that the run stopped before exhausting the schedule
	// space — a budget tripped or the context was cancelled. All counts
	// then cover exactly the explored region (never garbage, never silent
	// truncation) and are lower bounds on the true values.
	Partial bool
	// StopReason labels why a Partial run stopped (runctl.StopCancelled,
	// StopTimeout, StopMaxStates, StopMaxDepth, ...); empty when the run
	// completed.
	StopReason runctl.StopReason
}

// Ok reports whether the exploration was exhaustive and found neither
// invariant violations nor non-termination cycles.
func (r Report) Ok() bool {
	return !r.Truncated && !r.Partial && !r.CycleFound && len(r.Violations) == 0
}

// noteStop records the first stop reason and marks the report partial.
func (r *Report) noteStop(reason runctl.StopReason) {
	r.Partial = true
	if r.StopReason == runctl.StopNone {
		r.StopReason = reason
	}
}

// String renders a one-line summary. Partial runs carry an explicit
// marker; complete runs render exactly as before budgets existed, keeping
// recorded outputs byte-identical.
func (r Report) String() string {
	s := fmt.Sprintf("states=%d terminal=%d cycle=%t violations=%d truncated=%t deepest=%d",
		r.States, r.Terminal, r.CycleFound, len(r.Violations), r.Truncated, r.DeepestPath)
	if r.Symmetry == SymmetryFull {
		s += fmt.Sprintf(" symmetry=full weighted=%d", r.WeightedStates)
	}
	if r.Partial {
		s += fmt.Sprintf(" [PARTIAL: %s]", r.StopReason)
	}
	return s
}

// Invariant is a per-configuration safety check; return a non-nil error to
// record a violation. It must not mutate the engine.
type Invariant[V any] func(e *sim.Engine[V]) error

// InstanceInvariant is a per-configuration safety check over a type-erased
// protocol instance; return a non-nil error to record a violation. It must
// not mutate the instance.
type InstanceInvariant func(inst sim.Instance) error

// Explore exhaustively runs every schedule of the given initial engine
// within the option bounds, checking inv (which may be nil) at every
// reachable configuration, including the initial one.
//
// When opt.Context is cancelled or a Budget axis trips, Explore stops
// promptly and returns a partial Report (Partial true, StopReason set)
// whose counts cover exactly the states visited so far — always a
// prefix-consistent subset of the full exploration.
func Explore[V any](root *sim.Engine[V], opt Options, inv Invariant[V]) Report {
	return explore(sim.InstanceOf(root), opt, canonFor(root, opt), erase(inv))
}

// ExploreInstance is Explore for type-erased protocol instances — engines
// that do not expose the typed *sim.Engine[V] surface, like the DECOUPLED
// communication-layer engine. It runs the same traversal with the same
// options (compact or string tables, Workers, SpillDir, budgets); only
// symmetry reduction needs the typed engine, so Options.Symmetry is
// ignored here.
//
// For models whose configuration includes a monotone global clock (the
// DECOUPLED tick), the reachable graph is infinite and acyclic: bound the
// search with Options.MaxDepth and expect Truncated reports — verdicts
// then cover every schedule of at most MaxDepth steps.
func ExploreInstance(root sim.Instance, opt Options, inv InstanceInvariant) Report {
	return explore(root, opt, nil, inv)
}

func explore(root sim.Instance, opt Options, canon canonFn, inv InstanceInvariant) Report {
	opt = opt.withDefaults()
	opt, cancel := opt.withTimeout()
	defer cancel()
	if opt.Workers > 1 {
		return exploreParallel(root, opt, canon, inv)
	}
	s := newExplorer(opt, canon, inv)
	if opt.SpillDir != "" && !opt.StringFingerprints && !s.spillTo(opt.SpillDir) {
		return s.report
	}
	s.run(root)
	return s.report
}

// newExplorer is a search with Explore's one hook: the invariant at every
// state's first visit.
func newExplorer(opt Options, canon canonFn, inv InstanceInvariant) *search[struct{}] {
	s := newSearch[struct{}](opt, canon, true)
	if inv != nil {
		s.first = func(f frame[struct{}]) struct{} {
			if err := inv(f.inst); err != nil {
				s.violation(err, f.key)
			}
			return struct{}{}
		}
	}
	return s
}

// WorstActivations computes, for each process, the exact maximum number of
// rounds it can be made to perform over *all* schedules before it
// terminates — the per-process round complexity. The boolean result is
// false when the analysis was inconclusive (a cycle makes some supremum
// infinite, or bounds truncated the exploration); the report describes why.
func WorstActivations[V any](root *sim.Engine[V], opt Options) ([]int, bool, Report) {
	opt = opt.withDefaults()
	opt, cancel := opt.withTimeout()
	defer cancel()
	n := root.N()
	zero := make([]int, n) // shared by every leaf; never mutated
	rotBuf := make([]int, n)
	// Memo vectors are stored in the canonical frame, so rotationally
	// equivalent configurations share one entry; fromCanon re-indexes one
	// into the frame of a query with rotation rot. The result may alias
	// rotBuf, valid until the next call.
	fromCanon := func(v []int, rot int) []int {
		if rot == 0 {
			return v
		}
		for i := range rotBuf {
			rotBuf[i] = v[((i-rot)%n+n)%n]
		}
		return rotBuf
	}
	s := newSearch[[]int](opt, canonFor(root, opt), true)
	s.post = true
	s.first = func(f frame[[]int]) []int {
		if f.inst.AllDone() {
			return zero
		}
		return make([]int, n)
	}
	s.edge = func(f frame[[]int], child []int, rot int, ok bool, performed []int) {
		// A child cut off by a cycle or a stop contributes nothing beyond
		// the step into it; the report already says the result is open.
		sub := zero
		if ok {
			sub = fromCanon(child, rot)
		}
		for p := range f.val {
			total := sub[p]
			for _, q := range performed {
				if q == p {
					total++
					break
				}
			}
			if total > f.val[p] {
				f.val[p] = total
			}
		}
	}
	s.leave = func(f frame[[]int]) []int {
		if f.rot == 0 {
			return f.val
		}
		out := make([]int, n)
		for j := range out {
			out[j] = f.val[(j+f.rot)%n]
		}
		return out
	}
	v, rot, reached := s.run(sim.InstanceOf(root))
	vec := zero
	if reached {
		vec = append([]int(nil), fromCanon(v, rot)...)
	}
	rep := s.report
	return vec, !rep.CycleFound && !rep.Truncated && !rep.Partial, rep
}
