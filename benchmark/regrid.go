package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/server"
	"samr/internal/trace"
)

// regrid-stream: closed loop, two callers, each playing one AMR
// application at a time that waits for its partition before it
// continues. An application run replays one window of a paper trace
// (chunkLen consecutive regrid states) under one spec, processor count
// and transport, translated by a fresh admissible shift, so every
// request is a partition miss whose work is exactly that of the paper
// snapshot.

// chunkLen is the number of consecutive snapshots one application run
// replays. Windows are fixed slices of the 101-snapshot traces, so a
// shift is reused only on disjoint windows of the same trace and no
// (snapshot content) ever repeats within a run.
const chunkLen = 10

// appRun is one application run of the stream.
type appRun struct {
	app     string
	spec    string // the spec as a client writes it
	name    string // samrd's canonical name for spec
	nprocs  int
	session bool // create + per-level delta steps, else one full post per snapshot
	start   int  // first snapshot of the window
	end     int  // one past the last snapshot
	shift   int
}

func (r appRun) stateful() bool { return strings.HasPrefix(r.name, "postmap(") }

// regridRec is one request of the stream.
type regridRec struct {
	run  int    // index into the runs slice
	snap int    // snapshot index in the trace
	kind string // "create", "step", "post" or "delete"
	lat  time.Duration
	code int
	body []byte
	err  error
}

func (r regridRec) regrid() bool { return r.kind == "step" || r.kind == "post" }

// regridPlan deals application runs in whole cycles: each cycle holds
// every (trace, spec, nprocs, transport) combination once, in seeded
// order. Combination c replays window (k + offset[c]) mod windows in
// cycle k, so any ten consecutive cycles replay every window of every
// combination exactly once, and each (trace, window) use takes a fresh
// shift. Measuring whole cycles keeps the work mix the same across
// seeds; the seed moves only order, window phase and shifts.
type regridPlan struct {
	trs     map[string]*trace.Trace
	rng     *rand.Rand
	names   map[string]string
	combos  []appRun // one per combination, window and shift unset
	offsets []int
	cycles  int
	shifts  []int
	unused  map[[2]int][]int // (app index, window) -> unused shifts
}

func newRegridPlan(trs map[string]*trace.Trace, seed int64) (*regridPlan, error) {
	p := &regridPlan{trs: trs, rng: rand.New(rand.NewSource(seed)), names: map[string]string{}, unused: map[[2]int][]int{}}
	p.shifts = shiftPool(p.rng)
	for _, spec := range streamSpecs {
		pt, err := server.ParsePartitioner(spec)
		if err != nil {
			return nil, err
		}
		p.names[spec] = pt.Name()
	}
	for _, app := range streamApps {
		for _, spec := range streamSpecs {
			for _, np := range streamProcs {
				for _, session := range []bool{false, true} {
					p.combos = append(p.combos, appRun{app: app, spec: spec, name: p.names[spec], nprocs: np, session: session})
					p.offsets = append(p.offsets, p.rng.Intn(p.windows(app)))
				}
			}
		}
	}
	return p, nil
}

// windows is the number of chunkLen windows of app's trace; the last
// window absorbs the remainder.
func (p *regridPlan) windows(app string) int { return len(p.trs[app].Snapshots) / chunkLen }

func (p *regridPlan) cycle() ([]appRun, error) {
	runs := make([]appRun, len(p.combos))
	for c, r := range p.combos {
		w := (p.cycles + p.offsets[c]) % p.windows(r.app)
		key := [2]int{slices.Index(streamApps, r.app), w}
		free, ok := p.unused[key]
		if !ok {
			free = p.rng.Perm(len(p.shifts))
		}
		if len(free) == 0 {
			return nil, fmt.Errorf("%s window %d: admissible shifts exhausted", r.app, w)
		}
		r.shift, p.unused[key] = p.shifts[free[0]], free[1:]
		r.start, r.end = w*chunkLen, (w+1)*chunkLen
		if w == p.windows(r.app)-1 {
			r.end = len(p.trs[r.app].Snapshots)
		}
		runs[c] = r
	}
	p.cycles++
	p.rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return runs, nil
}

// stream plays whole cycles on callers closed-loop callers until dur has
// passed at a cycle boundary, and returns the runs, their requests, the
// number of cycles and the elapsed wall time.
func (p *regridPlan) stream(ctx context.Context, d *daemon, dur time.Duration) ([]appRun, []regridRec, int, time.Duration, error) {
	var (
		mu     sync.Mutex
		runs   []appRun
		recs   []regridRec
		cycles int
		cur    []appRun
		pos    int
		perr   error
		start  = time.Now()
	)
	next := func() (appRun, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if pos == len(cur) {
			if time.Since(start) >= dur || ctx.Err() != nil || perr != nil {
				return appRun{}, 0, false
			}
			cur, perr = p.cycle()
			pos = 0
			cycles++
			if perr != nil {
				return appRun{}, 0, false
			}
		}
		r := cur[pos]
		pos++
		runs = append(runs, r)
		return r, len(runs) - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, idx, ok := next()
				if !ok {
					return
				}
				rs := p.play(ctx, d, r, idx)
				mu.Lock()
				recs = append(recs, rs...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs, recs, cycles, time.Since(start), perr
}

// play runs one application: its request bodies are prepared up front,
// then sent back to back, each waiting for the previous reply.
func (p *regridPlan) play(ctx context.Context, d *daemon, r appRun, idx int) []regridRec {
	snaps := p.trs[r.app].Snapshots[r.start:r.end]
	hs := make([]*grid.Hierarchy, len(snaps))
	for i, s := range snaps {
		hs[i] = translate(s.H, r.shift)
	}
	var recs []regridRec
	send := func(kind string, snap int, method, path string, body []byte) regridRec {
		code, out, lat, err := d.call(ctx, method, path, body)
		rec := regridRec{run: idx, snap: snap, kind: kind, lat: lat, code: code, body: out, err: err}
		recs = append(recs, rec)
		return rec
	}
	if !r.session {
		bodies := make([][]byte, len(hs))
		for i, h := range hs {
			w := server.FromHierarchy(h)
			bodies[i] = mustMarshal(server.PartitionRequest{Hierarchy: &w, Partitioner: r.spec, NProcs: r.nprocs})
		}
		for i, b := range bodies {
			send("post", r.start+i, http.MethodPost, "/v1/partition", b)
		}
		return recs
	}
	w := server.FromHierarchy(hs[0])
	create := mustMarshal(server.SessionCreateRequest{Hierarchy: &w, Partitioner: r.spec, NProcs: r.nprocs})
	steps := make([][]byte, len(hs))
	for i := 1; i < len(hs); i++ {
		steps[i] = mustMarshal(server.SessionStepRequest{Levels: levelOps(hs[i-1], hs[i])})
	}
	rec := send("create", r.start, http.MethodPost, "/v1/session", create)
	id := sessionID(rec)
	if id == "" {
		return recs
	}
	for i := 1; i < len(hs); i++ {
		send("step", r.start+i, http.MethodPost, "/v1/session/"+id+"/step", steps[i])
	}
	send("delete", r.start, http.MethodDelete, "/v1/session/"+id, nil)
	return recs
}

// sessionID extracts the token of a successful session create.
func sessionID(rec regridRec) string {
	if rec.err != nil || rec.code != http.StatusOK {
		return ""
	}
	var resp server.SessionCreateResponse
	if err := json.Unmarshal(rec.body, &resp); err != nil {
		return ""
	}
	return resp.Session
}

// expectedRegrids computes, in process and off the timed path, the
// assignment behind every regrid response of the stream: once per
// untranslated (snapshot, spec, nprocs), and once per window for
// stateful post-mapping sessions, whose result depends on the steps
// before it.
type expectedRegrids struct {
	mu      sync.Mutex
	plain   map[string]*partition.Assignment   // app/snap/name/np
	carried map[string][]*partition.Assignment // app/start/np -> per step
}

func plainKey(app string, snap int, name string, np int) string {
	return fmt.Sprintf("%s/%d/%s/%d", app, snap, name, np)
}

func carriedKey(r appRun) string { return fmt.Sprintf("%s/%d/%d", r.app, r.start, r.nprocs) }

func (p *regridPlan) expected(ctx context.Context, runs []appRun, recs []regridRec) (*expectedRegrids, error) {
	ex := &expectedRegrids{plain: map[string]*partition.Assignment{}, carried: map[string][]*partition.Assignment{}}
	type job struct {
		run  appRun
		snap int
	}
	var jobs []job
	seen := map[string]bool{}
	for _, rec := range recs {
		if !rec.regrid() {
			continue
		}
		r := runs[rec.run]
		k := plainKey(r.app, rec.snap, r.name, r.nprocs)
		if rec.kind == "step" && r.stateful() {
			k = carriedKey(r)
		}
		if !seen[k] {
			seen[k] = true
			jobs = append(jobs, job{r, rec.snap})
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += callers {
				if errs[w] = ex.compute(ctx, p.trs[jobs[i].run.app], jobs[i].run, jobs[i].snap); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return ex, errors.Join(errs...)
}

func (ex *expectedRegrids) compute(ctx context.Context, tr *trace.Trace, r appRun, snap int) error {
	if r.session && r.stateful() {
		// The session's partitioner first runs on the first step (the
		// create only uploads), then carries its history step to step.
		pm, err := server.ParsePartitioner(r.spec)
		if err != nil {
			return err
		}
		as := make([]*partition.Assignment, r.end-r.start)
		for i := r.start + 1; i < r.end; i++ {
			if as[i-r.start], err = pm.Partition(ctx, tr.Snapshots[i].H, r.nprocs); err != nil {
				return err
			}
		}
		ex.mu.Lock()
		ex.carried[carriedKey(r)] = as
		ex.mu.Unlock()
		return nil
	}
	p, err := server.ParsePartitioner(r.spec)
	if err != nil {
		return err
	}
	a, err := p.Partition(ctx, tr.Snapshots[snap].H, r.nprocs)
	if err != nil {
		return err
	}
	ex.mu.Lock()
	ex.plain[plainKey(r.app, snap, r.name, r.nprocs)] = a
	ex.mu.Unlock()
	return nil
}

// verify byte-compares one request's reply with the expected one.
func (p *regridPlan) verify(ex *expectedRegrids, runs []appRun, rec regridRec) error {
	if rec.err != nil {
		return rec.err
	}
	r := runs[rec.run]
	h := p.trs[r.app].Snapshots[rec.snap].H
	switch rec.kind {
	case "delete":
		if rec.code != http.StatusNoContent {
			return fmt.Errorf("delete: status %d", rec.code)
		}
		return nil
	case "create":
		var resp server.SessionCreateResponse
		if rec.code != http.StatusOK {
			return fmt.Errorf("create: status %d", rec.code)
		}
		if err := json.Unmarshal(rec.body, &resp); err != nil {
			return err
		}
		if want := translate(h, r.shift).Signature().String(); resp.Signature != want || resp.Partitioner != r.name {
			return fmt.Errorf("create: signature/partitioner mismatch")
		}
		return nil
	}
	if rec.code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", rec.kind, rec.code, bytes.TrimSpace(rec.body))
	}
	var a *partition.Assignment
	if rec.kind == "step" && r.stateful() {
		a = ex.carried[carriedKey(r)][rec.snap-r.start]
	} else {
		a = ex.plain[plainKey(r.app, rec.snap, r.name, r.nprocs)]
	}
	if a == nil {
		return fmt.Errorf("no expected result for %s %s snap %d", r.app, r.name, rec.snap)
	}
	if want := partitionBody(h, r.shift, r.name, r.nprocs, a, server.CacheMiss); !bytes.Equal(rec.body, want) {
		return fmt.Errorf("%s %s %s nprocs=%d snap %d: response body differs from the expected one", rec.kind, r.app, r.name, r.nprocs, rec.snap)
	}
	return nil
}

// regridOutcome summarizes one stream against one daemon.
type regridOutcome struct {
	runs              []appRun
	elapsed           time.Duration
	delta             cacheDelta
	rssMB             float64
	attempted, failed int
	regrids           int
	steps, posts      []float64 // latencies in ms of successful regrids
	cycles            int
	cacheable         uint64 // regrids that go through the server cache
}

// runStream plays the stream for dur against d and checks every reply.
func runStream(ctx context.Context, e *env, d *daemon, plan *regridPlan, dur time.Duration) (*regridOutcome, error) {
	before, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	runs, recs, cycles, elapsed, err := plan.stream(ctx, d, dur)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, errors.New("regrid stream ran no application")
	}
	after, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	o := &regridOutcome{runs: runs, elapsed: elapsed, delta: deltaOf(before, after)}
	if o.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	ex, err := plan.expected(ctx, runs, recs)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		o.attempted++
		if err := plan.verify(ex, runs, rec); err != nil {
			if o.failed++; o.failed <= 5 {
				logf("regrid-stream: wrong reply: %v", err)
			}
			continue
		}
		if !rec.regrid() {
			continue
		}
		o.regrids++
		if rec.kind == "step" {
			o.steps = append(o.steps, ms(rec.lat))
		} else {
			o.posts = append(o.posts, ms(rec.lat))
		}
		if rec.kind == "post" || !runs[rec.run].stateful() {
			o.cacheable++
		}
	}
	o.cycles = cycles
	// Cache regime: every cacheable regrid is a fresh compute.
	if o.delta.hits != 0 || o.delta.shared != 0 || o.delta.tier != 0 || o.delta.misses != o.cacheable {
		e.problem("regrid-stream cache regime: hits=%d shared=%d tier=%d misses=%d, want 0/0/0/%d",
			o.delta.hits, o.delta.shared, o.delta.tier, o.delta.misses, o.cacheable)
	}
	return o, nil
}

func runRegridStream(ctx context.Context, e *env) (*result, error) {
	trs, _, err := generateTraces(ctx, streamApps)
	if err != nil {
		return nil, err
	}
	plan, err := newRegridPlan(trs, e.seed)
	if err != nil {
		return nil, err
	}
	if err := checkTranslation(ctx, e, trs, streamSpecs, plan.shifts); err != nil {
		return nil, err
	}

	// Set-up is starting samrd until it answers; five starts, median.
	var setups []time.Duration
	var d *daemon
	for i := 0; i < 5; i++ {
		d.stop()
		t0 := time.Now()
		if d, err = startDaemon(ctx, e, "samrd"); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer d.stop()

	steal := startSteal()
	o, err := runStream(ctx, e, d, plan, e.seconds)
	if err != nil {
		return nil, err
	}
	logf("regrid-stream: cpu steal %.1f%% during the measured phase", 100*steal.share())
	d.stop()

	all := append(append([]float64(nil), o.steps...), o.posts...)
	logf("regrid-stream: %d application runs in %d cycles, %d regrids in %.2fs (%.1f/s); p50 %.2f p90 %.2f p99 %.2f ms; step p50 %.2f p99 %.2f ms (%d); post p50 %.2f p99 %.2f ms (%d); cache misses %d",
		len(o.runs), o.cycles, o.regrids, o.elapsed.Seconds(), float64(o.regrids)/o.elapsed.Seconds(),
		quantile(all, 0.5), quantile(all, 0.9), quantile(all, 0.99),
		quantile(o.steps, 0.5), quantile(o.steps, 0.99), len(o.steps),
		quantile(o.posts, 0.5), quantile(o.posts, 0.99), len(o.posts), o.delta.misses)
	return &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   endToEnd(setups, o.rssMB, float64(o.regrids)/o.elapsed.Seconds(), quantile(all, 0.5), quantile(all, 0.9)),
	}, nil
}
