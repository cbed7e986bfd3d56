package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samr/internal/core"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/server"
	"samr/internal/sim"
	"samr/internal/trace"
)

// replay-hot: the same server, grid and wire layers doing read-only
// work while the partitioner sits idle. samrd runs with its default
// flags plus -tier-dir and -traces; setup pre-warms everything, so the
// measured phase computes no partition.

const (
	// offeredRate is the open-loop arrival rate (requests/s), well below
	// the ~1,500 req/s two connections sustain on hits.
	offeredRate = 200
	// hotSetSize is about twice samrd's default 256-entry memory cache:
	// the Zipf head hits memory, the tail is served by the disk tier.
	hotSetSize = 512
	// zipfS is the Zipf exponent over hot-set ranks.
	zipfS = 1.01
	// Request mix shares: partition posts, then selects; the rest are
	// simulates.
	partitionShare = 0.85
	selectShare    = 0.10
	// selectSet sizes the pool selects draw from.
	selectSet = 64
)

// hotSpecs are the cacheable specs of the hot set. Post-mapping is left
// out: its results never enter the tier, so a tail entry would miss.
var hotSpecs = []string{"domain-hilbert-u2", "nature+fable", "patch-lpt"}

type hotKey struct {
	app    string
	snap   int
	spec   string
	name   string
	nprocs int
}

type simCase struct {
	app    string
	spec   string
	nprocs int
}

// replayInputs are the pre-generated requests and, computed in process,
// the replies samrd must send.
type replayInputs struct {
	trs  map[string]*trace.Trace
	hot  []hotKey // in Zipf rank order
	post [][]byte // request bodies, by rank
	// assign is the expected assignment per rank; bodies per disposition
	// are rendered from it lazily.
	assign    []*partition.Assignment
	bodies    map[string][]byte // "rank/disp"
	selBody   [][]byte
	selWant   [][]byte
	sims      []simCase
	simBody   [][]byte
	simWant   [][]byte
	schedSeed int64
}

// hotWindows is the number of snapshot windows the hot set is
// stratified over.
const hotWindows = 10

func newReplayInputs(ctx context.Context, trs map[string]*trace.Trace, seed int64) (*replayInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &replayInputs{trs: trs, schedSeed: rng.Int63(), bodies: map[string][]byte{}}
	// The hot set is the same for every seed, so runs differ only in the
	// request stream the seed draws: rank r takes the (trace, spec,
	// nprocs, window) cell perm[r mod cells] of a fixed order, so the
	// Zipf head mixes hierarchy sizes, and the k-th rank in a cell takes
	// a distinct snapshot of its window.
	type cell struct{ app, spec, nprocs, window int }
	var cells []cell
	for a := range streamApps {
		for s := range hotSpecs {
			for n := range streamProcs {
				for w := 0; w < hotWindows; w++ {
					cells = append(cells, cell{a, s, n, w})
				}
			}
		}
	}
	perm := rand.New(rand.NewSource(1)).Perm(len(cells))
	in.hot = make([]hotKey, hotSetSize)
	in.post = make([][]byte, hotSetSize)
	in.assign = make([]*partition.Assignment, hotSetSize)
	for r := range in.hot {
		c := cells[perm[r%len(cells)]]
		app := streamApps[c.app]
		n := len(trs[app].Snapshots)
		lo, hi := c.window*n/hotWindows, (c.window+1)*n/hotWindows
		k := hotKey{app: app, snap: lo + (r/len(cells)*3+c.window)%(hi-lo), spec: hotSpecs[c.spec], nprocs: streamProcs[c.nprocs]}
		p, err := server.ParsePartitioner(k.spec)
		if err != nil {
			return nil, err
		}
		k.name = p.Name()
		h := trs[k.app].Snapshots[k.snap].H
		w := server.FromHierarchy(h)
		in.post[r] = mustMarshal(server.PartitionRequest{Hierarchy: &w, Partitioner: k.spec, NProcs: k.nprocs})
		if in.assign[r], err = p.Partition(ctx, h, k.nprocs); err != nil {
			return nil, err
		}
		in.hot[r] = k
	}
	// Selects classify the hierarchies of the first selectSet ranks.
	for _, k := range in.hot[:selectSet] {
		h := trs[k.app].Snapshots[k.snap].H
		w := server.FromHierarchy(h)
		in.selBody = append(in.selBody, mustMarshal(server.SelectRequest{Hierarchy: &w, NProcs: k.nprocs}))
		in.selWant = append(in.selWant, encodeBody(expectedSelect(h, k.nprocs)))
	}
	for i, app := range streamApps {
		c := simCase{app: app, spec: hotSpecs[i], nprocs: streamProcs[i%len(streamProcs)]}
		p, err := server.ParsePartitioner(c.spec)
		if err != nil {
			return nil, err
		}
		res, err := sim.SimulateTrace(ctx, trs[app], p, c.nprocs, sim.DefaultMachine())
		if err != nil {
			return nil, err
		}
		name := strings.ToLower(app)
		in.sims = append(in.sims, c)
		in.simBody = append(in.simBody, mustMarshal(server.SimulateRequest{Trace: name, Partitioner: c.spec, NProcs: c.nprocs}))
		in.simWant = append(in.simWant, encodeBody(server.SimulateResponse{
			Trace: name, Partitioner: res.PartitionerName, NProcs: res.NumProcs, Snapshots: len(res.Steps),
			TotalEstTime: res.TotalEstTime(), MeanImbalance: res.MeanImbalance(),
		}))
	}
	return in, nil
}

// expectedSelect is handleSelect's reply for one hierarchy.
func expectedSelect(h *grid.Hierarchy, nprocs int) server.SelectResponse {
	meta := core.NewMetaPartitioner(2e-4)
	slot := float64(h.Workload()) * sim.DefaultMachine().CellTime / float64(nprocs)
	p := meta.Select(h, slot)
	s, _ := meta.LastSample()
	return server.SelectResponse{Selections: []server.Selection{{
		Partitioner: p.Name(), DimI: s.DimI, DimII: s.DimII, DimIII: s.DimIII, SizeNorm: s.SizeNorm, Points: s.Points,
	}}}
}

var dispRE = regexp.MustCompile(`"cache":"([a-z]+)"`)

// partitionWant returns the expected body of rank's reply for the
// disposition the reply claims; a miss is never acceptable here.
func (in *replayInputs) partitionWant(rank int, got []byte) ([]byte, error) {
	m := dispRE.FindSubmatch(got)
	if m == nil {
		return nil, fmt.Errorf("reply carries no cache disposition")
	}
	disp := string(m[1])
	if disp != server.CacheHit && disp != server.CacheTier && disp != server.CacheShared {
		return nil, fmt.Errorf("hot-set reply was a %q, want hit, tier or shared", disp)
	}
	key := fmt.Sprintf("%d/%s", rank, disp)
	if b, ok := in.bodies[key]; ok {
		return b, nil
	}
	k := in.hot[rank]
	b := partitionBody(in.trs[k.app].Snapshots[k.snap].H, 0, k.name, k.nprocs, in.assign[rank], disp)
	in.bodies[key] = b
	return b, nil
}

// hotReq is one scheduled request of the mix.
type hotReq struct {
	kind string // "partition", "select", "simulate"
	idx  int    // rank, select index, or simulate index
	due  time.Duration
}

// mix draws n requests of the replay mix; due times are Poisson arrivals
// at rate when rate > 0.
func (in *replayInputs) mix(rng *rand.Rand, n int, rate float64) []hotReq {
	zipf := rand.NewZipf(rand.New(rand.NewSource(rng.Int63())), zipfS, 1, hotSetSize-1)
	out := make([]hotReq, n)
	var t float64
	for i := range out {
		if rate > 0 {
			t += rng.ExpFloat64() / rate
		}
		u := rng.Float64()
		switch {
		case u < partitionShare:
			out[i] = hotReq{kind: "partition", idx: int(zipf.Uint64())}
		case u < partitionShare+selectShare:
			out[i] = hotReq{kind: "select", idx: rng.Intn(len(in.selBody))}
		default:
			out[i] = hotReq{kind: "simulate", idx: rng.Intn(len(in.sims))}
		}
		out[i].due = time.Duration(t * float64(time.Second))
	}
	return out
}

func (in *replayInputs) request(r hotReq) (path string, body []byte) {
	switch r.kind {
	case "partition":
		return "/v1/partition", in.post[r.idx]
	case "select":
		return "/v1/select", in.selBody[r.idx]
	}
	return "/v1/simulate", in.simBody[r.idx]
}

// check byte-compares one reply with the expected one.
func (in *replayInputs) check(r hotReq, code int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", r.kind, code, bytes.TrimSpace(body))
	}
	var want []byte
	switch r.kind {
	case "partition":
		if want, err = in.partitionWant(r.idx, body); err != nil {
			return err
		}
	case "select":
		want = in.selWant[r.idx]
	default:
		want = in.simWant[r.idx]
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s %d: response body differs from the expected one", r.kind, r.idx)
	}
	return nil
}

// prewarm fills samrd: every hot-set entry computed once (tail first,
// so the memory cache ends up holding the head and the disk tier holds
// all of it), and every simulate case run twice.
func (in *replayInputs) prewarm(ctx context.Context, d *daemon) error {
	var next atomic.Int64
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hotSetSize {
					return
				}
				if errs[c] = d.post(ctx, "/v1/partition", in.post[hotSetSize-1-i], nil); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, b := range in.simBody {
		for k := 0; k < 2; k++ {
			if err := d.post(ctx, "/v1/simulate", b, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// hotRec is one measured request.
type hotRec struct {
	req       hotReq
	late, lat time.Duration // send start - due; completion - due (open loop) or send (closed)
	code      int
	body      []byte
	err       error
}

// openLoop sends sched on callers connections, each request at its due
// time (or as soon as a caller frees up), timing from the due time.
func openLoop(ctx context.Context, d *daemon, in *replayInputs, sched []hotReq) []hotRec {
	recs := make([]hotRec, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				r := sched[i]
				if wait := time.Until(start.Add(r.due)); wait > 0 {
					time.Sleep(wait)
				}
				path, body := in.request(r)
				sent := time.Since(start)
				code, out, _, err := d.call(ctx, http.MethodPost, path, body)
				recs[i] = hotRec{req: r, late: sent - r.due, lat: time.Since(start) - r.due, code: code, body: out, err: err}
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop sends the mix back to back on callers callers for dur.
func closedLoop(ctx context.Context, d *daemon, in *replayInputs, mix []hotReq, dur time.Duration) ([]hotRec, time.Duration) {
	var mu sync.Mutex
	var recs []hotRec
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []hotRec
			for time.Since(start) < dur && ctx.Err() == nil {
				r := mix[int(next.Add(1)-1)%len(mix)]
				path, body := in.request(r)
				code, out, lat, err := d.call(ctx, http.MethodPost, path, body)
				mine = append(mine, hotRec{req: r, lat: lat, code: code, body: out, err: err})
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// replayOutcome summarizes one replay against one daemon.
type replayOutcome struct {
	open, closed []hotRec
	// Per closed-loop slice: the p50 and p90 of partition-post latencies
	// and the requests per second.
	sliceP50, sliceP90, sliceRate []float64
	openDelta                     cacheDelta
	closedDelta                   cacheDelta
	rssMB                         float64
	attempted, failed             int
}

func (o *replayOutcome) latencies(kind string) []float64 { return kindLatencies(o.open, kind) }

// kindLatencies returns the latencies in ms of the successful requests
// of one kind.
func kindLatencies(recs []hotRec, kind string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.req.kind == kind && r.err == nil {
			xs = append(xs, ms(r.lat))
		}
	}
	return xs
}

func (o *replayOutcome) lateness() []float64 {
	xs := make([]float64, len(o.open))
	for i, r := range o.open {
		xs[i] = ms(r.late)
	}
	return xs
}

// startHot starts samrd over the trace directory with a fresh tier
// directory and pre-warms it.
func startHot(ctx context.Context, e *env, in *replayInputs, n int) (*daemon, error) {
	d, err := startDaemon(ctx, e, fmt.Sprintf("samrd-hot-%d", n),
		"-traces", filepath.Join(e.dir, "traces"), "-tier-dir", filepath.Join(e.dir, fmt.Sprintf("tier-%d", n)))
	if err != nil {
		return nil, err
	}
	if err := in.prewarm(ctx, d); err != nil {
		d.stop()
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	return d, nil
}

// runReplay measures a pre-warmed daemon: first a closed-loop phase of
// closedDur cut into slices consecutive slices, then an open-loop phase
// of openDur. It then checks every reply and the cache regime.
//
// The bounded metrics come from the closed loop. On a shared VM an open
// loop leaves the vCPUs idle between arrivals, and the hypervisor's
// wake-up delay (CPU steal) then sets the open-loop latencies: between
// identical runs their p90 moved by more than 25%, tracking steal, while
// the busy closed loop sees almost none.
func runReplay(ctx context.Context, e *env, d *daemon, in *replayInputs, closedDur time.Duration, slices int, openDur time.Duration) (*replayOutcome, error) {
	rng := rand.New(rand.NewSource(in.schedSeed))
	o := &replayOutcome{}
	s0, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < slices; i++ {
		closed, elapsed := closedLoop(ctx, d, in, in.mix(rng, 4096, 0), closedDur/time.Duration(slices))
		hits := kindLatencies(closed, "partition")
		o.closed = append(o.closed, closed...)
		o.sliceP50 = append(o.sliceP50, quantile(hits, 0.5))
		o.sliceP90 = append(o.sliceP90, quantile(hits, 0.9))
		o.sliceRate = append(o.sliceRate, float64(len(closed))/elapsed.Seconds())
	}
	s1, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	o.open = openLoop(ctx, d, in, in.mix(rng, int(offeredRate*openDur.Seconds()), offeredRate))
	s2, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	o.closedDelta, o.openDelta = deltaOf(s0, s1), deltaOf(s1, s2)
	if o.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}

	shown := 0
	for _, recs := range [][]hotRec{o.closed, o.open} {
		for _, r := range recs {
			o.attempted++
			if err := in.check(r.req, r.code, r.body, r.err); err != nil {
				o.failed++
				if shown++; shown <= 5 {
					logf("replay-hot: wrong reply: %v", err)
				}
			}
		}
	}
	if o.openDelta.misses != 0 || o.openDelta.tier == 0 || o.closedDelta.misses != 0 {
		e.problem("replay-hot cache regime: open-loop misses=%d tier=%d, closed-loop misses=%d; want 0, >0, 0",
			o.openDelta.misses, o.openDelta.tier, o.closedDelta.misses)
	}
	return o, nil
}

func runReplayHot(ctx context.Context, e *env) (*result, error) {
	trs, _, err := generateTraces(ctx, streamApps)
	if err != nil {
		return nil, err
	}
	if err := writeTraces(filepath.Join(e.dir, "traces"), trs); err != nil {
		return nil, err
	}
	in, err := newReplayInputs(ctx, trs, e.seed)
	if err != nil {
		return nil, err
	}

	// Set-up is starting samrd and pre-warming it; three times, median.
	var setups []time.Duration
	var d *daemon
	for i := 0; i < 3; i++ {
		d.stop()
		t0 := time.Now()
		if d, err = startHot(ctx, e, in, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer d.stop()

	// The closed loop runs three quarters of --seconds in slices of about
	// a second, then the open loop runs a fifth of it.
	steal := startSteal()
	closed := e.seconds * 3 / 4
	o, err := runReplay(ctx, e, d, in, closed, max(1, int(closed/time.Second)), e.seconds/5)
	if err != nil {
		return nil, err
	}
	logf("replay-hot: cpu steal %.1f%% during the measured phases", 100*steal.share())
	d.stop()

	rps := median(o.sliceRate)
	closedHits := kindLatencies(o.closed, "partition")
	hits := o.latencies("partition")
	logf("replay-hot: closed loop %d requests, %.0f req/s (median of slices), partition p50 %.3f p90 %.3f ms (medians of slices; pooled %.3f, %.3f, p99 %.3f)",
		len(o.closed), rps, median(o.sliceP50), median(o.sliceP90), quantile(closedHits, 0.5), quantile(closedHits, 0.9), quantile(closedHits, 0.99))
	logf("replay-hot: open loop %d requests at %d/s: partition p50 %.3f p90 %.3f p99 %.3f ms from due time (%d), select p50 %.3f ms, simulate p50 %.3f ms, late p99 %.3f ms; cache hits %d tier %d misses %d",
		len(o.open), offeredRate, quantile(hits, 0.5), quantile(hits, 0.9), quantile(hits, 0.99), len(hits),
		median(o.latencies("select")), median(o.latencies("simulate")), quantile(o.lateness(), 0.99),
		o.openDelta.hits, o.openDelta.tier, o.openDelta.misses)
	return &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   endToEnd(setups, o.rssMB, rps, median(o.sliceP50), median(o.sliceP90)),
	}, nil
}
