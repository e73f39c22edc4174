package serve_test

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"asynccycle/internal/graph"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/serve"
	"asynccycle/internal/sim"
)

// The "instant" test protocol returns at once: a worker finishes such a
// job as soon as it dequeues it, which is what races intake bookkeeping.
func init() {
	protocol.MustRegister(&protocol.Descriptor{
		Name:         "instant",
		Problem:      "test protocol: returns immediately",
		TopologyName: "cycle",
		MinN:         3,
		Palette:      "{0}",
		Topology:     graph.Cycle,
		Validity:     func(g graph.Graph, r sim.Result) error { return nil },
		Run: func(xs []int, o protocol.RunOptions) (sim.Result, runctl.StopReason, error) {
			n := len(xs)
			return sim.Result{Outputs: make([]int, n), Done: make([]bool, n), Crashed: make([]bool, n)}, runctl.StopNone, nil
		},
	})
}

// TestSubmitRacesFastWorkers floods a small pool with instant jobs from
// several goroutines. Each job must be registered (WaitGroup count, id,
// table entry) before a worker can finish it, or the drain WaitGroup goes
// negative and panics. Accepted ids must stay consecutive across sheds.
func TestSubmitRacesFastWorkers(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2, QueueDepth: 16})
	const submitters, perSubmitter = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				_, err := s.Submit(serve.JobSpec{Kind: "run", Alg: "instant", N: 3})
				if err != nil && err != serve.ErrQueueFull {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.Drain(10 * time.Second)

	st := s.Stats()
	if st.Accepted == 0 || st.Accepted+st.Shed != submitters*perSubmitter {
		t.Fatalf("stats %+v for %d submissions", st, submitters*perSubmitter)
	}
	if done := st.Completed + st.Partial + st.Failed; done != st.Accepted {
		t.Fatalf("accepted %d but %d finished: %+v", st.Accepted, done, st)
	}
	for i := int64(1); i <= st.Accepted; i++ {
		if _, ok := s.Job(fmt.Sprintf("j%06d", i)); !ok {
			t.Fatalf("accepted ids not consecutive: j%06d missing of %d", i, st.Accepted)
		}
	}
	if _, ok := s.Job(fmt.Sprintf("j%06d", st.Accepted+1)); ok {
		t.Fatalf("a shed job kept an id past the %d accepted", st.Accepted)
	}
}

// TestSubmitBodyCap: a job spec padded past the fixed 1 MiB body cap is
// refused with 413 before it is decoded, and nothing is enqueued.
func TestSubmitBodyCap(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 1})
	spec := `{"kind":"run","alg":"six","n":8` + strings.Repeat(" ", 1<<20) + `}`
	resp, _ := post(t, ts, spec)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded %d-byte body: status %d, want 413", len(spec), resp.StatusCode)
	}
	if st := s.Stats(); st.Accepted != 0 {
		t.Fatalf("oversized body was accepted: %+v", st)
	}
	if resp, _ := post(t, ts, `{"kind":"run","alg":"six","n":8}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small spec after a refused one: status %d", resp.StatusCode)
	}
}
