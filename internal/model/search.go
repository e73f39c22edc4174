package model

// The exploration core. Every analysis in this package is one serial
// depth-first traversal over the type-erased sim.Instance plus a few
// hooks. The traversal owns everything the analyses share:
//
//   - state identity: compact 128-bit keys, the exact string oracle
//     (Options.StringFingerprints), and rotation-canonical keys with their
//     orbit sizes under within-run symmetry reduction;
//   - the visited/memo table and the cycle stack;
//   - clone recycling through CloneInto;
//   - context/budget polling, depth and MaxStates cuts, stop reasons;
//   - the path from the root, which yields cycle and violation witnesses;
//   - metrics.Run publication.
//
// An analysis supplies only what it computes at a state (see search's
// hook fields): Explore checks an invariant at each first visit,
// WorstActivations folds worst-case vectors over child edges in post-order,
// and the state-graph analyses emit nodes and edges.

import (
	"os"
	"sync/atomic"

	"asynccycle/internal/metrics"
	"asynccycle/internal/ooc"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// canonFn keys a configuration by its canonical (rotation-minimal)
// fingerprint, in exact string form when exact is set. It also returns the
// rotation carrying the configuration into the canonical frame (canonical
// position j holds process (j+rot) mod n) and the exact rotation-orbit
// size. Only the typed engine offers canonical fingerprints.
type canonFn func(inst sim.Instance, exact bool) (stateKey, int, int)

// canonFor returns the canonical keyer for root's typed engine when
// within-run rotation reduction is sound (canonApplies), nil otherwise.
func canonFor[V any](root *sim.Engine[V], opt Options) canonFn {
	if !canonApplies(root, opt) {
		return nil
	}
	return func(inst sim.Instance, exact bool) (stateKey, int, int) {
		e := sim.Unwrap[V](inst)
		if exact {
			fp, rot, orbit := e.CanonicalFingerprintInfo()
			return stateKey{str: fp}, rot, orbit
		}
		h1, h2, rot, orbit := e.CanonicalFingerprintHash128()
		return stateKey{h1: h1, h2: h2}, rot, orbit
	}
}

// keyOf computes a configuration's identity under the chosen scheme, with
// its rotation into the key's frame and its orbit size (0 and 1 without
// canon). FingerprintHash128 may use instance-owned scratch: never key a
// shared instance from concurrent workers.
func keyOf(inst sim.Instance, canon canonFn, exact bool) (stateKey, int, int) {
	if canon != nil {
		return canon(inst, exact)
	}
	if exact {
		return stateKey{str: inst.Fingerprint()}, 0, 1
	}
	h1, h2 := inst.FingerprintHash128()
	return stateKey{h1: h1, h2: h2}, 0, 1
}

// exactOf is the collision-resolution string matching keyOf's scheme.
func exactOf(inst sim.Instance, canon canonFn) string {
	if canon != nil {
		k, _, _ := canon(inst, true)
		return k.str
	}
	return inst.Fingerprint()
}

// erase adapts a typed per-configuration check to the type-erased
// traversal.
func erase[V any](check Invariant[V]) InstanceInvariant {
	if check == nil {
		return nil
	}
	return func(inst sim.Instance) error { return check(sim.Unwrap[V](inst)) }
}

// frame is the state a hook runs for.
type frame[T any] struct {
	inst  sim.Instance
	key   stateKey
	depth int
	rot   int // rotation into the canonical frame (0 without canon)
	orbit int // exact rotation-orbit size (1 without canon)
	val   T   // first's result; an analysis may accumulate into it
}

// search is the one traversal. T is the value the state table keeps per
// state: nothing for Explore, a worst-case vector for WorstActivations, a
// node id for the state graphs.
type search[T any] struct {
	opt   Options
	canon canonFn // nil: plain keys

	// Hooks; a nil hook does nothing. first runs once per state, on its
	// first visit, and returns the state's value. edge runs as each child
	// returns, with the child's value and rotation (ok is false when a
	// cycle or a stop cut the child off) and the processes that performed
	// a round on the step into it. leave runs after the last child.
	first func(f frame[T]) T
	edge  func(f frame[T], child T, childRot int, ok bool, performed []int)
	leave func(f frame[T]) T

	// post admits a state to the table and the counters only when its
	// value is final — at a leaf, or with leave's result after its children
	// (memoizing analyses). A state cut by a bound is then never admitted,
	// and is explored again when another path reaches it. Otherwise states
	// are admitted on first visit.
	post bool

	seen    *stateTable[T]
	onStack *stateTable[struct{}] // nil: no cycle detection (state graphs keep back edges)

	// spill, when non-nil, replaces seen with the out-of-core fingerprint
	// set (Options.SpillDir; set semantics only, so Explore alone uses
	// it); spillDir is the scratch directory removed on teardown. onStack
	// stays in RAM: it is bounded by the path depth, not the state space.
	spill    *ooc.Set
	spillDir string

	path      [][]int    // activation sets from the root to the current state
	pathKeys  []stateKey // keys of the states along the path
	report    Report
	interrupt bool            // context/deadline tripped: unwind without exploring
	ck        *runctl.Checker // nil when un-budgeted (zero polling cost)
	met       *metrics.Run    // nil when observability is off
	free      []sim.Instance  // discarded branch instances, recycled by CloneInto

	// sharedStates, when non-nil, is the run-wide explored-state counter
	// the parallel frontier shares across workers so MaxStates is one
	// budget for the whole run; sharedVisited likewise totals visited
	// entries across workers for the VisitedSize gauge.
	sharedStates  *atomic.Int64
	sharedVisited *atomic.Int64

	// Key collection, enabled (keys non-nil) only by the parallel frontier
	// so worker reports can be merged by set union (see parallel.go). The
	// mapped value is the state's exact rotation-orbit size.
	keys         map[stateKey]int
	terminalKeys map[stateKey]struct{}
	vioKeys      []stateKey // state key of each recorded violation, aligned with report.Violations
}

// newSearch prepares a traversal; cycles turns on the cycle stack.
func newSearch[T any](opt Options, canon canonFn, cycles bool) *search[T] {
	opt = opt.withDefaults()
	s := &search[T]{
		opt:   opt,
		canon: canon,
		seen:  newStateTable[T](opt.StringFingerprints),
		ck:    runctl.NewChecker(opt.Context, opt.Budget.Timeout),
		met:   opt.Metrics,
	}
	if cycles {
		s.onStack = newStateTable[struct{}](opt.StringFingerprints)
	}
	if canon != nil {
		s.report.Symmetry = SymmetryFull
	}
	return s
}

// spillTo makes the visited set out of core under dir. When the store
// cannot be made it refuses the run (Truncated, StopIO) rather than fall
// back to an in-RAM table the caller asked to bound, and returns false.
func (s *search[T]) spillTo(dir string) bool {
	d, err := os.MkdirTemp(dir, "spill-")
	if err == nil {
		if s.spill, err = ooc.NewSet(d, s.opt.SpillMemLimit); err == nil {
			s.spillDir = d
			return true
		}
		os.RemoveAll(d)
	}
	s.cut(runctl.StopIO)
	return false
}

// run traverses from root and finishes the report. It returns root's
// value, its rotation, and whether the root was reached at all.
func (s *search[T]) run(root sim.Instance) (T, int, bool) {
	v, rot, ok := s.visit(root, 0)
	if s.spill != nil {
		s.spill.Close()
		os.RemoveAll(s.spillDir)
	}
	s.report.HashCollisions = s.collisions()
	if s.met != nil {
		s.met.HashCollisions.Add(int64(s.report.HashCollisions))
	}
	return v, rot, ok
}

func (s *search[T]) collisions() int {
	n := s.seen.hashCollisions()
	if s.onStack != nil {
		n += s.onStack.hashCollisions()
	}
	return n
}

// cut records that a bound or a stop cut exploration short.
func (s *search[T]) cut(reason runctl.StopReason) {
	s.report.Truncated = true
	s.report.noteStop(reason)
}

// clone copies inst, recycling a released instance when available.
func (s *search[T]) clone(inst sim.Instance) sim.Instance {
	if n := len(s.free); n > 0 {
		dst := s.free[n-1]
		s.free = s.free[:n-1]
		return inst.CloneInto(dst)
	}
	return inst.Clone()
}

// visit explores inst at the given depth. It returns the state's value,
// the rotation carrying inst into its key's frame, and ok = false when a
// cycle or a stop cut the state off.
func (s *search[T]) visit(inst sim.Instance, depth int) (v T, rot int, ok bool) {
	if s.interrupt {
		return v, 0, false
	}
	if reason, stop := s.ck.Check(); stop {
		// Context cancelled or deadline passed: unwind the whole stack
		// without claiming further states; everything counted so far stays.
		s.interrupt = true
		s.cut(reason)
		return v, 0, false
	}
	if depth > s.report.DeepestPath {
		s.report.DeepestPath = depth
	}
	k, rot, orbit := keyOf(inst, s.canon, s.opt.StringFingerprints)
	str := func() string { return exactOf(inst, s.canon) }
	if s.onStack != nil {
		if _, on := s.onStack.get(k, str); on {
			s.cycle(k)
			return v, rot, false
		}
	}
	if s.spill != nil {
		added, err := s.spill.Add(k.h1, k.h2)
		if err != nil {
			// The on-disk visited set is gone; membership answers from here
			// on would be undefined, so unwind everything counted so far.
			s.interrupt = true
			s.cut(runctl.StopIO)
			return v, rot, false
		}
		if !added {
			return v, rot, true
		}
	} else if v, seen := s.seen.get(k, str); seen {
		return v, rot, true
	}

	f := frame[T]{inst: inst, key: k, depth: depth, rot: rot, orbit: orbit}
	if s.first != nil {
		f.val = s.first(f)
	}
	budget := s.report.States
	if !s.post {
		budget = s.admit(&f, str)
	}
	if inst.AllDone() {
		if s.post {
			s.admit(&f, str)
		}
		s.report.Terminal++
		if s.met != nil {
			s.met.Terminal.Inc()
		}
		if s.terminalKeys != nil {
			s.terminalKeys[k] = struct{}{}
		}
		return f.val, rot, true
	}
	if depth >= s.opt.MaxDepth {
		// Prune this branch but keep exploring siblings: depth bounds are a
		// per-path horizon, not a global stop.
		s.cut(runctl.StopMaxDepth)
		return f.val, rot, true
	}
	if budget >= s.opt.MaxStates {
		s.cut(runctl.StopMaxStates)
		return f.val, rot, true
	}
	working := workingSet(inst)
	if len(working) == 0 {
		// All remaining processes crashed: nothing can evolve.
		if s.post {
			s.admit(&f, str)
		}
		return f.val, rot, true
	}

	if s.onStack != nil {
		s.onStack.put(k, str, struct{}{})
	}
	s.pathKeys = append(s.pathKeys, k)
	for _, subset := range subsets(working, s.opt.SingletonsOnly) {
		child := s.clone(inst)
		// performed is child-owned scratch, valid until child steps again;
		// the recursion only steps clones of child.
		performed := child.Step(subset)
		s.path = append(s.path, subset)
		cv, crot, cok := s.visit(child, depth+1)
		if s.edge != nil {
			s.edge(f, cv, crot, cok, performed)
		}
		s.free = append(s.free, child)
		s.path = s.path[:len(s.path)-1]
		if s.interrupt {
			break
		}
	}
	s.pathKeys = s.pathKeys[:len(s.pathKeys)-1]
	if s.onStack != nil {
		s.onStack.del(k, str)
	}
	if s.leave != nil {
		f.val = s.leave(f)
	}
	if s.post {
		s.admit(&f, str)
	}
	return f.val, rot, true
}

// admit enters f's state into the table and the run's counters and
// returns the count the MaxStates budget trips on: the run-wide total when
// workers share one budget, this search's own count otherwise.
func (s *search[T]) admit(f *frame[T], str func() string) int {
	if s.spill == nil {
		s.seen.put(f.key, str, f.val)
	}
	s.report.States++
	budget := s.report.States
	if s.sharedStates != nil {
		budget = int(s.sharedStates.Add(1))
	}
	if s.canon != nil {
		s.report.WeightedStates += int64(f.orbit)
	}
	if s.keys != nil {
		s.keys[f.key] = f.orbit
	}
	if s.met != nil {
		s.met.States.Inc()
		s.met.FrontierDepth.SetMax(int64(f.depth))
		s.met.VisitedSize.SetMax(s.visitedSize())
	}
	return budget
}

// visitedSize is the figure the VisitedSize gauge publishes for the state
// just admitted: the run-wide total across all workers when the parallel
// frontier shares a counter, the spilled set's cardinality when out of
// core, this search's own table size otherwise.
func (s *search[T]) visitedSize() int64 {
	if s.sharedVisited != nil {
		return s.sharedVisited.Add(1)
	}
	if s.spill != nil {
		return s.spill.Len()
	}
	return int64(s.seen.length())
}

// cycle records a return to the state k on the current path: the first
// one found becomes the report's replayable certificate.
func (s *search[T]) cycle(k stateKey) {
	if s.report.CycleFound {
		return
	}
	s.report.CycleFound = true
	// The repeated state sits somewhere along the current path; everything
	// before it is the prefix, the rest is the loop.
	start := 0
	for i, pk := range s.pathKeys {
		if pk == k {
			start = i
			break
		}
	}
	s.report.CyclePrefix = copySteps(s.path[:start])
	s.report.CycleLoop = copySteps(s.path[start:])
}

// violation records an invariant failure at the state k, with the current
// path as the witness of the first one.
func (s *search[T]) violation(err error, k stateKey) {
	if len(s.report.Violations) == 0 {
		s.report.ViolationWitness = copySteps(s.path)
	}
	if len(s.report.Violations) < s.opt.MaxViolations {
		s.report.Violations = append(s.report.Violations, err.Error())
		if s.keys != nil {
			s.vioKeys = append(s.vioKeys, k)
		}
	}
}

// copySteps deep-copies a schedule fragment.
func copySteps(steps [][]int) [][]int {
	out := make([][]int, len(steps))
	for i, s := range steps {
		out[i] = append([]int(nil), s...)
	}
	return out
}

// workingSet lists the processes still eligible for activation.
func workingSet(inst sim.Instance) []int {
	var out []int
	for i := 0; i < inst.N(); i++ {
		if inst.Working(i) {
			out = append(out, i)
		}
	}
	return out
}

// subsets enumerates the allowed activation sets over the working
// processes: all non-empty subsets, or singletons only.
func subsets(working []int, singletonsOnly bool) [][]int {
	if singletonsOnly {
		out := make([][]int, len(working))
		for i, p := range working {
			out[i] = []int{p}
		}
		return out
	}
	w := len(working)
	out := make([][]int, 0, (1<<w)-1)
	for mask := 1; mask < 1<<w; mask++ {
		var set []int
		for i := 0; i < w; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, working[i])
			}
		}
		out = append(out, set)
	}
	return out
}
