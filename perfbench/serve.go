package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"asynccycle/internal/serve"
)

// serveWL drives colorserved's handler over loopback HTTP, closed loop:
// each of serveClients callers, on its own keep-alive connection, submits
// a job, waits for it, and fetches its result before sending the next.
// Jobs are small (sim runs at n ≤ 64, checks at n = 3–4, short fuzz
// campaigns), so HTTP decode, validation, queueing and encoding stay a
// visible share of each job; engine "big" jobs are left to bigrun.
//
// The server keeps every job it has ever accepted (unbounded retention),
// so peak_rss_mb grows with the number of jobs served.
type serveWL struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{}
	base    string
	pool    chan *http.Client

	bodies [][]byte
	kindOf []string

	// Traced-phase records, one per op.
	mu    sync.Mutex
	recs  []serveRec
	opSeq atomic.Int64
	heap0 float64
}

// serveRec is one traced job's timings in milliseconds.
type serveRec struct {
	kind                                 string
	submit, queue, exec, waitRet, result float64
	e2e                                  float64
}

var serveKinds = []string{"run", "check", "fuzz"}

const (
	serveClients = 2
	serveWorkers = 2
	// jobRounds rounds of 72 jobs form the job sequence.
	jobRounds = 57
)

var (
	serveAlgs   = []string{"six", "five", "fast"}
	serveScheds = []string{"random", "rr", "burst", "alt"}
)

func (s *serveWL) name() string          { return "serve" }
func (s *serveWL) clients() int          { return serveClients }
func (s *serveWL) kinds() []string       { return serveKinds }
func (s *serveWL) numOps() int           { return len(s.bodies) }
func (s *serveWL) setupReps() int        { return 9 }
func (s *serveWL) opsPerSecond() float64 { return 2000 }
func (s *serveWL) pin() error            { return nil }

// beforeTraced records the live heap the traced phase's growth is
// measured from.
func (s *serveWL) beforeTraced() { s.heap0 = heapInUseMB() }

// genJobs draws the job sequence: jobRounds shuffled rounds of 72 jobs,
// each with the same composition — per algorithm, four sim runs under
// every scheduler (a quarter with crashes), two checks at n = 3, one at
// n = 4 and five fuzz campaigns — so every seed asks for the same kinds of
// work and draws only sizes, scheduler seeds and the order. Sorted by
// cost the kinds run: runs (two thirds of the jobs), n = 3 checks, fuzz
// campaigns, n = 4 checks (one in 24), which puts p50 inside the runs and
// p90 inside the fuzz campaigns rather than on a gap between kinds. It
// also returns one spec of each (kind, algorithm, scheduler) for the
// warm-up.
func genJobs(seed int64) (specs, warm []serve.JobSpec) {
	rng := newRand(seed, 3)
	for r := 0; r < jobRounds; r++ {
		var round []serve.JobSpec
		for _, alg := range serveAlgs {
			for _, sc := range serveScheds {
				for c := 0; c < 4; c++ {
					spec := serve.JobSpec{Kind: "run", Alg: alg, N: 16 + rng.Intn(49), Sched: sc, Seed: rng.Int63n(1 << 31)}
					if c == 0 {
						spec.Crash = 0.1
					}
					round = append(round, spec)
				}
			}
			round = append(round,
				serve.JobSpec{Kind: "check", Alg: alg, N: 3},
				serve.JobSpec{Kind: "check", Alg: alg, N: 3},
				serve.JobSpec{Kind: "check", Alg: alg, N: 4})
			for f := 0; f < 5; f++ {
				round = append(round, serve.JobSpec{Kind: "fuzz", Alg: alg, Campaign: 4, Seed: rng.Int63n(1 << 31)})
			}
		}
		for _, i := range rng.Perm(len(round)) {
			specs = append(specs, round[i])
		}
	}
	for _, alg := range serveAlgs {
		for _, sc := range serveScheds {
			warm = append(warm, serve.JobSpec{Kind: "run", Alg: alg, N: 32, Sched: sc, Seed: 1})
		}
		warm = append(warm, serve.JobSpec{Kind: "check", Alg: alg, N: 4},
			serve.JobSpec{Kind: "fuzz", Alg: alg, Campaign: 4, Seed: 1})
	}
	return specs, warm
}

// setup generates the job sequence, starts the server and waits until it
// is healthy, reads the registry, and runs one warm-up job of each
// (kind, algorithm, scheduler).
func (s *serveWL) setup(seed int64) error {
	specs, warm := genJobs(seed)
	s.bodies, s.kindOf = s.bodies[:0], s.kindOf[:0]
	for _, spec := range specs {
		b, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		s.bodies = append(s.bodies, b)
		s.kindOf = append(s.kindOf, spec.Kind)
	}
	s.srv = serve.New(serve.Options{Workers: serveWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.httpSrv.Serve(ln) // returns http.ErrServerClosed on teardown
	}()
	s.pool = make(chan *http.Client, serveClients)
	for i := 0; i < serveClients; i++ {
		s.pool <- &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	c := <-s.pool
	defer func() { s.pool <- c }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		code, _, err := do(c, "GET", s.base+"/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy: %d %v", code, err)
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, err := do(c, "GET", s.base+"/protocols", nil); err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /protocols: %d %v", code, err)
	}
	for _, spec := range warm {
		b, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		if _, err := s.job(c, spec.Kind, b, nil, -1); err != nil {
			return fmt.Errorf("warm-up %s/%s: %w", spec.Kind, spec.Alg, err)
		}
	}
	return nil
}

func (s *serveWL) teardown() {
	if s.httpSrv == nil {
		return
	}
	_ = s.httpSrv.Close() // closes the listener and every connection
	<-s.served
	s.srv.Drain(time.Second)
	for i := 0; i < serveClients; i++ {
		c := <-s.pool
		c.CloseIdleConnections()
	}
	s.httpSrv, s.srv = nil, nil
}

// do sends one request and reads the whole response body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *serveWL) op(i int, tr *tracer) opResult {
	c := <-s.pool
	defer func() { s.pool <- c }()
	op := int64(-1)
	if tr != nil {
		op = s.opSeq.Add(1)
	}
	r, err := s.job(c, s.kindOf[i], s.bodies[i], tr, op)
	r.err = err
	return r
}

// job runs one closed-loop job: POST /jobs, GET /jobs/{id}?wait=1, GET
// /jobs/{id}/result, and checks the outcome.
func (s *serveWL) job(c *http.Client, kind string, body []byte, tr *tracer, op int64) (opResult, error) {
	r := opResult{kind: kind}
	var root int32 = -1
	call := func(name, method, url string, body []byte) (int, []byte, time.Time, time.Duration, error) {
		idx := int32(-1)
		if tr != nil {
			idx, _ = tr.begin(name, root, op)
		}
		t0 := time.Now()
		code, data, err := do(c, method, url, body)
		d := time.Since(t0)
		if tr != nil {
			tr.end(idx)
		}
		return code, data, t0, d, err
	}
	if tr != nil {
		root, _ = tr.begin("serve.job["+kind+"]", -1, op)
		defer tr.end(root)
	}
	start := time.Now()
	code, data, _, submitD, err := call("http.POST /jobs", "POST", s.base+"/jobs", body)
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusAccepted {
		return r, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	var v serve.View
	if err := json.Unmarshal(data, &v); err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	code, data, waitT0, waitD, err := call("http.GET /jobs/{id}?wait=1", "GET", s.base+"/jobs/"+v.ID+"?wait=1", nil)
	if err != nil || code != http.StatusOK {
		return r, fmt.Errorf("wait %s: HTTP %d %v", v.ID, code, err)
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return r, fmt.Errorf("wait %s: %w", v.ID, err)
	}
	code, data, _, resultD, err := call("http.GET /jobs/{id}/result", "GET", s.base+"/jobs/"+v.ID+"/result", nil)
	if err != nil || code != http.StatusOK {
		return r, fmt.Errorf("result %s: HTTP %d %v", v.ID, code, err)
	}
	e2e := time.Since(start)
	r.dur = e2e
	var res struct {
		Outcome string          `json:"outcome"`
		Error   string          `json:"error"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return r, fmt.Errorf("result %s: %w", v.ID, err)
	}
	if res.Outcome != serve.OutcomeOK || v.Outcome != serve.OutcomeOK {
		return r, fmt.Errorf("job %s (%s): outcome %q %s", v.ID, body, res.Outcome, res.Error)
	}
	if err := checkResult(kind, res.Result, &r); err != nil {
		return r, fmt.Errorf("job %s (%s): %w", v.ID, body, err)
	}
	r.work = 1
	if tr != nil && v.StartedAt != nil && v.FinishedAt != nil {
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		waitEnd := waitT0.Add(waitD)
		s.mu.Lock()
		s.recs = append(s.recs, serveRec{
			kind:    kind,
			submit:  ms(submitD),
			queue:   ms(v.StartedAt.Sub(v.CreatedAt)),
			exec:    ms(v.FinishedAt.Sub(*v.StartedAt)),
			waitRet: ms(waitEnd.Sub(*v.FinishedAt)),
			result:  ms(resultD),
			e2e:     ms(e2e),
		})
		s.mu.Unlock()
	}
	return r, nil
}

// checkResult gates one result payload and fills the op's exact counts.
func checkResult(kind string, raw json.RawMessage, r *opResult) error {
	switch kind {
	case "run":
		var rr serve.RunResult
		if err := json.Unmarshal(raw, &rr); err != nil {
			return err
		}
		if len(rr.Verdicts) == 0 {
			return errors.New("no verdicts")
		}
		for _, v := range rr.Verdicts {
			if !v.OK {
				return fmt.Errorf("verdict %s: %s", v.Name, v.Error)
			}
		}
		if rr.Bound > 0 && rr.MaxRounds > rr.Bound {
			return fmt.Errorf("%d rounds exceed the bound %d", rr.MaxRounds, rr.Bound)
		}
		r.counts = fmt.Sprintf("steps=%d terminated=%d crashed=%d maxrounds=%d colors=%v", rr.Steps, rr.Terminated, rr.Crashed, rr.MaxRounds, rr.Colors)
	case "check":
		var cr serve.CheckResult
		if err := json.Unmarshal(raw, &cr); err != nil {
			return err
		}
		if len(cr.Violations) > 0 || cr.CycleFound || cr.Truncated {
			return fmt.Errorf("check: %s", cr.Summary)
		}
		r.counts = fmt.Sprintf("states=%d terminal=%d", cr.States, cr.Terminal)
	case "fuzz":
		var fr serve.FuzzResult
		if err := json.Unmarshal(raw, &fr); err != nil {
			return err
		}
		if len(fr.Violations) > 0 || len(fr.Divergences) > 0 {
			return fmt.Errorf("fuzz: %s", fr.Summary)
		}
		r.counts = fmt.Sprintf("schedules=%d states=%d", fr.Schedules, fr.StatesSeen)
	}
	return nil
}

// stats fetches /stats.
func (s *serveWL) stats() (serve.Stats, error) {
	c := <-s.pool
	defer func() { s.pool <- c }()
	var st serve.Stats
	code, data, err := do(c, "GET", s.base+"/stats", nil)
	if err != nil || code != http.StatusOK {
		return st, fmt.Errorf("GET /stats: HTTP %d %v", code, err)
	}
	return st, json.Unmarshal(data, &st)
}

// finalCheck gates the server counters after a phase: nothing shed, no
// partial or failed job, and no accepted job dropped. A worker counts a
// job just after releasing its waiters, so the counters get a moment to
// settle.
func (s *serveWL) finalCheck(ph *phase) {
	var st serve.Stats
	var err error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st, err = s.stats(); err == nil && st.Accepted == st.Completed+st.Partial+st.Failed {
			break
		}
	}
	switch {
	case err != nil:
	case st.Shed != 0 || st.Partial != 0 || st.Failed != 0 || st.Rejected != 0:
		err = fmt.Errorf("server stats: shed=%d partial=%d failed=%d rejected=%d", st.Shed, st.Partial, st.Failed, st.Rejected)
	case st.Accepted != st.Completed:
		err = fmt.Errorf("server stats: dropped %d accepted jobs", st.Accepted-st.Completed)
	}
	if err != nil {
		ph.failed++
		ph.reasons = append(ph.reasons, err.Error())
	}
}

func (s *serveWL) layers(a, b *phase, m map[string]metric) error {
	p99, err := percentile(a.latMS, 0.99)
	if err != nil {
		return fmt.Errorf("latency p99: %w", err)
	}
	m["serve.latency_p99_ms"] = metric{p99, "ms"}
	s.mu.Lock()
	recs := s.recs
	s.mu.Unlock()
	col := func(f func(serveRec) float64, kind string) []float64 {
		var xs []float64
		for _, r := range recs {
			if kind == "" || r.kind == kind {
				xs = append(xs, f(r))
			}
		}
		return xs
	}
	type q struct {
		name string
		xs   []float64
		p    float64
	}
	for _, x := range []q{
		{"serve.serve.submit_p50_ms", col(func(r serveRec) float64 { return r.submit }, ""), 0.5},
		{"serve.serve.submit_p99_ms", col(func(r serveRec) float64 { return r.submit }, ""), 0.99},
		{"serve.serve.queue_wait_p50_ms", col(func(r serveRec) float64 { return r.queue }, ""), 0.5},
		{"serve.serve.queue_wait_p99_ms", col(func(r serveRec) float64 { return r.queue }, ""), 0.99},
		{"serve.sim.run_exec_p50_ms", col(func(r serveRec) float64 { return r.exec }, "run"), 0.5},
		{"serve.model.check_exec_p50_ms", col(func(r serveRec) float64 { return r.exec }, "check"), 0.5},
		{"serve.fuzzsched.fuzz_exec_p50_ms", col(func(r serveRec) float64 { return r.exec }, "fuzz"), 0.5},
		{"serve.serve.wait_return_p50_ms", col(func(r serveRec) float64 { return r.waitRet }, ""), 0.5},
		{"serve.serve.result_p50_ms", col(func(r serveRec) float64 { return r.result }, ""), 0.5},
	} {
		v, err := percentile(x.xs, x.p)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		m[x.name] = metric{v, "ms"}
	}
	var e2e, server float64
	for _, r := range recs {
		e2e += r.e2e
		server += r.queue + r.exec
	}
	m["serve.serve.http_overhead_frac"] = metric{(e2e - server) / e2e, "1"}
	st, err := s.stats()
	if err != nil {
		return err
	}
	m["serve.serve.shed"] = metric{float64(st.Shed), "count"}
	m["serve.serve.partial"] = metric{float64(st.Partial), "count"}
	m["serve.serve.failed"] = metric{float64(st.Failed), "count"}
	c := <-s.pool
	code, data, err := do(c, "GET", s.base+"/jobs", nil)
	s.pool <- c
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /jobs: HTTP %d %v", code, err)
	}
	var views []json.RawMessage
	if err := json.Unmarshal(data, &views); err != nil {
		return err
	}
	m["serve.serve.retained_jobs"] = metric{float64(len(views)), "count"}
	heap1 := heapInUseMB()
	if b.attempted > 0 {
		m["serve.serve.heap_growth_mb_per_1k_jobs"] = metric{(heap1 - s.heap0) / float64(b.attempted) * 1000, "MB"}
	}
	return nil
}
