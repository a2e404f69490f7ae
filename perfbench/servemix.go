package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	smtbalance "repro"
	"repro/internal/serve"
)

const (
	serveWarmKeys       = 16  // warm set pre-written to the disk tier in set-up
	serveColdPer10      = 3   // cold jobs in every ten requests; the other 70% repeat a warm key
	serveDupEvery       = 10  // every 10th cold job is sent twice at the same instant
	serveVerify         = 10  // every 10th cold answer is re-verified
	serveVerifyHot      = 50  // and every 50th hot one
	serveMaxOutstanding = 512 // client-side cap on outstanding requests
)

// serveScale sizes serve-mix's cold jobs (metbench, bt-mz, siesta
// shapes) to ~50-70 ms of simulation each.
var serveScale = [3]float64{0.48, 0.63, 0.25}

// slot is one scheduled request of the open-loop plan.
type slot struct {
	at  time.Duration // send time, from the window's start
	hot bool          // repeats a warm key
	job int           // index into serveState.jobs
}

// serveState is one set-up of serve-mix: the inputs, the disk tier, the
// server on a loopback listener and the client that talks to it.
type serveState struct {
	jobs    []jobSpec // warm set first, then the warm-up keys, then cold jobs
	bodies  [][]byte  // /v1/run body of each job
	slots   []slot
	dir     string
	m       *smtbalance.Machine
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client
	warmups [2]int // job indexes of the untimed warm-up requests
}

// reply is what the client saw for one slot.
type reply struct {
	due, sent, done time.Time
	status          int
	resp            serve.RunResponse
	err             error
}

// post sends one /v1/run body and decodes a 200 reply.
func (st *serveState) post(ctx context.Context, body []byte) (int, serve.RunResponse, error) {
	var out serve.RunResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, out, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, out, json.Unmarshal(data, &out)
}

func (st *serveState) close() {
	if st.srv != nil {
		st.srv.Close()
		<-st.served
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// inProcess answers a serve-mix request the way the server should have:
// a RunPolicy of the same job on a fresh machine without a disk tier.
func inProcess(ctx context.Context, job jobSpec) (serve.RunResponse, error) {
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		return serve.RunResponse{}, err
	}
	res, err := m.RunPolicy(ctx, job.public(), smtbalance.PinInOrder(4), nil)
	if err != nil {
		return serve.RunResponse{}, err
	}
	return expectedResponse(res), nil
}

// newServeState generates serve-mix's inputs and plan from the seed,
// writes the warm set to a fresh disk tier from a first Machine, starts
// the server on a second Machine over the same directory (so each warm
// key's first hit is a disk revival) and sends one untimed request of
// each kind.  On error the returned state holds what must be closed.
func newServeState(ctx context.Context, cfg config) (*serveState, error) {
	rng := newRNG(cfg.seed, 3)
	st := &serveState{}
	cold := 0
	nextCold := func() int {
		st.jobs = append(st.jobs, paperShapes[cold%3](rng, serveScale[cold%3]))
		cold++
		return len(st.jobs) - 1
	}
	for i := 0; i < serveWarmKeys+1; i++ {
		nextCold()
	}
	st.warmups = [2]int{serveWarmKeys, nextCold()}
	// The plan is stratified: every block of ten slots holds exactly
	// three cold jobs at seeded positions, so each run's hot share is
	// 70% and its percentiles sit at the same place in the mix.
	var cold10 []int
	for i := 0; i < int(cfg.serveRate*cfg.seconds)+1; i++ {
		at := time.Duration(float64(i) / cfg.serveRate * float64(time.Second))
		if i%10 == 0 {
			cold10 = rng.Perm(10)[:serveColdPer10]
		}
		if !slices.Contains(cold10, i%10) {
			st.slots = append(st.slots, slot{at: at, hot: true, job: rng.IntN(serveWarmKeys)})
			continue
		}
		j := nextCold()
		st.slots = append(st.slots, slot{at: at, job: j})
		if cold%serveDupEvery == 0 {
			st.slots = append(st.slots, slot{at: at, job: j}) // identical concurrent duplicate
		}
	}
	pl := smtbalance.PinInOrder(4)
	for _, j := range st.jobs {
		body, err := json.Marshal(runRequest(j, pl))
		if err != nil {
			return st, err
		}
		st.bodies = append(st.bodies, body)
	}

	dir, err := tempDir(cfg, "serve-disk-")
	if err != nil {
		return st, err
	}
	st.dir = dir
	writer, err := smtbalance.NewMachine(nil)
	if err != nil {
		return st, err
	}
	if err := writer.UseDiskCache(dir); err != nil {
		return st, err
	}
	err = parallel(serveWarmKeys+1, cfg.nproc, func(i int) error {
		_, err := writer.Run(ctx, st.jobs[i].public(), pl)
		return err
	})
	if err != nil {
		return st, fmt.Errorf("write warm set: %w", err)
	}

	if st.m, err = smtbalance.NewMachine(nil); err != nil {
		return st, err
	}
	if err := st.m.UseDiskCache(dir); err != nil {
		return st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.url = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: serve.NewHandler(st.m, serve.Config{}), ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc},
		Timeout:   time.Minute,
	}
	for _, j := range st.warmups {
		if _, _, err := st.post(ctx, st.bodies[j]); err != nil {
			return st, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return st, nil
}

// openLoop sends the plan's slots due within d at their scheduled times,
// each on its own goroutine, and waits for every reply.
func (st *serveState) openLoop(ctx context.Context, d time.Duration) ([]reply, float64) {
	n := 0
	for n < len(st.slots) && st.slots[n].at < d {
		n++
	}
	replies := make([]reply, n)
	sem := make(chan struct{}, serveMaxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range replies {
		s := st.slots[i]
		due := start.Add(s.at)
		sleepUntil(due)
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r := &replies[i]
			r.due, r.sent = due, time.Now()
			r.status, r.resp, r.err = st.post(ctx, st.bodies[s.job])
			r.done = time.Now()
		}()
	}
	wg.Wait()
	return replies, time.Since(start).Seconds()
}

// sleepUntil waits for t.  Go's timers can wake a millisecond late, which
// would add that millisecond to every request's latency, so the last
// stretch is spun instead (a few percent of one CPU at 20 requests/s).
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runServe is serve-mix: an open loop at a fixed rate against
// serve.NewHandler over loopback, with a disk tier in a temp dir.
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	st, setups, err := timeSetups(func() (*serveState, error) {
		st, err := newServeState(ctx, cfg)
		if err != nil {
			st.close()
		}
		return st, err
	}, (*serveState).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()

	before, a0 := st.m.CacheStats(), allocatedMB()
	replies, window := st.openLoop(ctx, cfg.window())
	after, allocMB := st.m.CacheStats(), allocatedMB()-a0
	out := &outcome{setups: setups, window: window, attempted: len(replies), allocMB: allocMB}

	var shed int
	var late, hotLat []float64
	simulated := map[int]bool{}
	for i, r := range replies {
		s := st.slots[i]
		late = append(late, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
		if r.err != nil {
			out.failed++
			if r.status == http.StatusTooManyRequests {
				shed++
			}
			fmt.Fprintf(os.Stderr, "perfbench: serve-mix request %d: %v\n", i, r.err)
			continue
		}
		ms := float64(r.done.Sub(r.due).Nanoseconds()) / 1e6
		out.lat = append(out.lat, ms)
		switch {
		case s.hot:
			hotLat = append(hotLat, ms)
		case !simulated[s.job]:
			// Only cold jobs are simulated, once each (a duplicate
			// shares its twin's run); warm keys come from the cache tiers.
			simulated[s.job] = true
			out.cycles += r.resp.Cycles
		}
	}

	// Verify every warm key's first answer (a disk revival), every 50th
	// later hot answer (a memory hit) and every 10th cold answer against
	// an in-process run of the same request.  The warm keys' expected
	// answers are computed once.
	warm := make([]serve.RunResponse, serveWarmKeys)
	err = parallel(serveWarmKeys, cfg.nproc, func(k int) error {
		var err error
		warm[k], err = inProcess(ctx, st.jobs[k])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("expected answers: %w", err)
	}
	var checks []check
	seen := map[int]bool{}
	hot, cold := 0, 0
	for i, r := range replies {
		s := st.slots[i]
		if r.err != nil {
			continue
		}
		first := !seen[s.job]
		seen[s.job] = true
		what := fmt.Sprintf("serve-mix request %d", i)
		if s.hot {
			if hot++; first || hot%serveVerifyHot == 0 {
				checks = append(checks, check{what, func() ([]string, error) { return diffResponses(r.resp, warm[s.job]), nil }})
			}
			continue
		}
		if !first {
			continue // a duplicate; its twin is the one sampled
		}
		if cold++; cold%serveVerify != 1 {
			continue
		}
		checks = append(checks, check{what, func() ([]string, error) {
			want, err := inProcess(ctx, st.jobs[s.job])
			if err != nil {
				return nil, err
			}
			return diffResponses(r.resp, want), nil
		}})
	}
	var bad int
	out.checked, bad = runChecks(checks, cfg.nproc)
	out.failed += bad
	out.notes = append(out.notes, fmt.Sprintf("hot requests: %d of %d, hot p50 %.3f ms; generator late p90 %.3f ms; %d shed",
		len(hotLat), len(replies), median(hotLat), percentile(late, 90), shed))

	if !cfg.trace {
		return out, nil
	}
	var totals cacheTotals
	totals.add(smtbalance.CacheStats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Coalesced: after.Coalesced - before.Coalesced, DiskHits: after.DiskHits - before.DiskHits,
	})
	out.layers = map[string]float64{"serve.shed": float64(shed), "serve.late_p90_ms": percentile(late, 90)}
	totals.report(out.layers)

	// The open loop's spans are recorded from the replies' timestamps
	// after the window, so tracing adds no work inside it; the overhead
	// reported is the recording time as a share of the window.
	tr := newTracer()
	t0 := time.Now()
	for i, r := range replies {
		root := tr.record("request", -1, i, r.due, r.done)
		tr.record("client.queue", root, i, r.due, r.sent)
		tr.record("http.roundtrip", root, i, r.sent, r.done)
	}
	out.layers["trace.overhead_share"] = time.Since(t0).Seconds() / window

	var coldSpecs []jobSpec
	for i := range replies {
		if s := st.slots[i]; !s.hot && len(coldSpecs) < 6 {
			coldSpecs = append(coldSpecs, st.jobs[s.job])
		}
	}
	in := probeInput{jobs: coldSpecs, pls: []smtbalance.Placement{smtbalance.PinInOrder(4)}}
	if err := probeLayers(ctx, cfg, in, out.layers); err != nil {
		return nil, err
	}
	// Attribution: a hot request's layer time is the handler alone; a
	// cold one adds its simulation, every cycle ticked (OS ticks keep
	// phase-skip off) at the cost of one power5 cycle.
	cycleNs := out.layers["power5.cycle_ns"]
	var layerNs float64
	for i, r := range replies {
		if r.err != nil {
			continue
		}
		layerNs += out.layers["serve.handler_us"] * 1e3
		if !st.slots[i].hot {
			layerNs += float64(r.resp.Cycles) * cycleNs
		}
	}
	out.layers["attrib.gap_share"] = 1 - layerNs/(sum(out.lat)*1e6)
	hotP50us := median(hotLat) * 1e3
	out.notes = append(out.notes, fmt.Sprintf("hot p50 %.1f us against %.1f us inside ServeHTTP: %.0f%% of a hot request is loopback, client and queueing",
		hotP50us, out.layers["serve.handler_us"], 100*(1-out.layers["serve.handler_us"]/hotP50us)))
	return out, noteSpans(cfg, out, tr)
}
