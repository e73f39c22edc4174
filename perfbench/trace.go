package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"asynccycle/internal/bigsim"
	"asynccycle/internal/sim"
)

// maxSpans caps the spans kept in memory; later spans are counted as
// dropped rather than growing the traced process without bound.
const maxSpans = 1 << 19

// sampleEvery is the 1-in-N rate at which hot callbacks (node rounds,
// kernel rounds, invariant calls) are recorded as individual spans. Their
// aggregate time is always counted in full or estimated from the samples.
const sampleEvery = 64

// span is one timed interval at a layer boundary. Parent is the index of
// the enclosing span (-1 for an op), Op the op's sequence number.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory for one traced phase and writes them out
// at exit. A nil *tracer records nothing: untraced ops pass nil.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	op      atomic.Int64 // sequence number of the op in flight
	parent  atomic.Int32 // span index new child spans attach to
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.parent.Store(-1)
	return t
}

// begin opens a span and returns its index and start time; end closes it.
func (t *tracer) begin(name string, parent int32, op int64) (int32, time.Time) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1, now
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(now.Sub(t.epoch)), Parent: parent, Op: op})
	return int32(len(t.spans) - 1), now
}

func (t *tracer) end(idx int32) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 {
		return 0
	}
	s := &t.spans[idx]
	s.End = int64(now.Sub(t.epoch))
	return time.Duration(s.End - s.Start)
}

// record stores an already-timed interval as a child of the current
// layer span.
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	s := int64(start.Sub(t.epoch))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: t.parent.Load(), Op: t.op.Load()})
}

// layer runs f inside a span that becomes the parent of every span f's
// callbacks record, and returns the span's duration. On a nil tracer it
// just runs f.
func (t *tracer) layer(name string, f func()) time.Duration {
	if t == nil {
		f()
		return 0
	}
	idx, _ := t.begin(name, t.parent.Load(), t.op.Load())
	prev := t.parent.Swap(idx)
	f()
	t.parent.Store(prev)
	return t.end(idx)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampler times one call in every sampleEvery and counts all calls, so a
// layer's total time is estimated as mean sampled time × calls.
type sampler struct {
	calls   atomic.Int64
	sampled atomic.Int64
	ns      atomic.Int64
}

func (s *sampler) tick() bool { return s.calls.Add(1)%sampleEvery == 0 }

func (s *sampler) add(d time.Duration) {
	s.sampled.Add(1)
	s.ns.Add(int64(d))
}

// meanNS is the mean duration of the sampled calls.
func (s *sampler) meanNS() float64 {
	n := s.sampled.Load()
	if n == 0 {
		return 0
	}
	return float64(s.ns.Load()) / float64(n)
}

// --- model-checker node wrapper --------------------------------------------

// tracedNode forwards every sim.Node call to the wrapped node and times
// one Publish/Observe in sampleEvery. It forwards sim.Hashable and the
// %v rendering too, so fingerprints — and hence every state count — are
// identical to the unwrapped node's, and warm fingerprinting stays
// allocation-free.
type tracedNode[V any] struct {
	inner sim.Node[V]
	smp   *sampler
	tr    *tracer
}

func wrapNodes[V any](nodes []sim.Node[V], smp *sampler, tr *tracer) []sim.Node[V] {
	out := make([]sim.Node[V], len(nodes))
	for i, nd := range nodes {
		out[i] = &tracedNode[V]{inner: nd, smp: smp, tr: tr}
	}
	return out
}

func (w *tracedNode[V]) Publish() V {
	if !w.smp.tick() {
		return w.inner.Publish()
	}
	t0 := time.Now()
	v := w.inner.Publish()
	d := since(t0)
	w.smp.add(d)
	w.tr.record("core.Publish", t0, d)
	return v
}

func (w *tracedNode[V]) Observe(view []sim.Cell[V]) sim.Decision {
	if !w.smp.tick() {
		return w.inner.Observe(view)
	}
	t0 := time.Now()
	dec := w.inner.Observe(view)
	d := since(t0)
	w.smp.add(d)
	w.tr.record("core.Observe", t0, d)
	return dec
}

func (w *tracedNode[V]) Clone() sim.Node[V] {
	return &tracedNode[V]{inner: w.inner.Clone(), smp: w.smp, tr: w.tr}
}

// HashFingerprint feeds exactly what the engine would feed for the
// wrapped node.
func (w *tracedNode[V]) HashFingerprint(h *sim.FPHasher) {
	if hv, ok := w.inner.(sim.Hashable); ok {
		hv.HashFingerprint(h)
		return
	}
	fmt.Fprintf(h, "%v", w.inner)
}

// Format renders the wrapped node, keeping string fingerprints unchanged.
func (w *tracedNode[V]) Format(f fmt.State, verb rune) { fmt.Fprintf(f, "%v", w.inner) }

// --- big-engine wrappers ----------------------------------------------------

// batcher mirrors bigsim's optional batched-decoding extension, which the
// engine detects by method set.
type batcher interface {
	Batchable() bool
	NextBatch(e *bigsim.Engine, buf []int32) []int32
}

// tracedSched times every scheduler decode call. It forwards Batchable and
// NextBatch, so a batched RR(1) run stays batched. The engine calls its
// scheduler from one goroutine, so the counters need no synchronisation.
type tracedSched struct {
	inner bigsim.Sched
	ns    int64
	calls int64
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) Next(e *bigsim.Engine, buf []int32) []int32 {
	t0 := time.Now()
	out := s.inner.Next(e, buf)
	s.ns += int64(since(t0))
	s.calls++
	return out
}

func (s *tracedSched) Batchable() bool {
	b, ok := s.inner.(batcher)
	return ok && b.Batchable()
}

func (s *tracedSched) NextBatch(e *bigsim.Engine, buf []int32) []int32 {
	t0 := time.Now()
	out := s.inner.(batcher).NextBatch(e, buf)
	s.ns += int64(since(t0))
	s.calls++
	return out
}

// tracedKernel times the rounds of one node in sampleEvery, chosen by
// index rather than by a shared counter so the sharded executor's workers
// do not contend on it.
type tracedKernel struct {
	bigsim.Kernel
	smp *sampler
}

func (k *tracedKernel) Round(i int32) (bool, int32) {
	if i%sampleEvery != 0 {
		return k.Kernel.Round(i)
	}
	t0 := time.Now()
	done, out := k.Kernel.Round(i)
	k.smp.add(since(t0))
	return done, out
}

func (k *tracedKernel) Publish(i int32) {
	if i%sampleEvery != 0 {
		k.Kernel.Publish(i)
		return
	}
	t0 := time.Now()
	k.Kernel.Publish(i)
	k.smp.add(since(t0))
}

func (k *tracedKernel) Observe(i int32) (bool, int32) {
	if i%sampleEvery != 0 {
		return k.Kernel.Observe(i)
	}
	t0 := time.Now()
	done, out := k.Kernel.Observe(i)
	k.smp.add(since(t0))
	return done, out
}

// timerOverhead is the median cost of one clock-read pair, measured once
// at start-up; since subtracts it from every timed callback, whose
// durations are of the same order.
var timerOverhead = measureTimerOverhead()

func measureTimerOverhead() time.Duration {
	ds := make([]float64, 2001)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// since is time.Since(t0) less the clock-read overhead, floored at 0.
func since(t0 time.Time) time.Duration {
	return max(time.Since(t0)-timerOverhead, 0)
}
