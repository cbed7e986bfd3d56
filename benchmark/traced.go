package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"samr/internal/apps"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/server"
	"samr/internal/sim"
	"samr/internal/tier"
	"samr/internal/trace"
)

// The traced run. It replays a seeded sample of every workload through
// the layers' public functions, sequentially, and records one span per
// call: name, start, end, parent and request ID. Spans stay in memory
// and are written to .bench_build/spans-<workload>-seed<n>.json when the
// run ends; the per-layer metrics (p50/p99 of span durations, and each
// layer's self time: duration minus the time its children cover) are
// derived from them. The counters that only a running samrd has
// (/v1/stats deltas, client lateness) come from short untraced HTTP
// phases of the two HTTP workloads. Every traced run, whatever its
// -workload, reports the same per-layer metric set.

// span is one timed call. Layer is the text before the first dot of
// Name.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // replayed request the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. The replay is sequential, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) close(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// do records f as a span named name under parent.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.open(name, parent)
	f()
	t.close(id)
}

// request starts a new replayed request and its root span.
func (t *tracer) request(name string) int {
	t.req++
	return t.open(name, 0)
}

// add records an already-timed call.
func (t *tracer) add(name string, parent int, start time.Time, took time.Duration) {
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, Start: s, End: s + int64(took)})
}

func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

func (t *tracer) quantile(name string, q float64, unit time.Duration) float64 {
	ds := t.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

func (t *tracer) total(prefix string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			sum += s.dur()
		}
	}
	return sum
}

// selfTimes sums, per layer, each span's duration minus the union of
// its children's intervals.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		cs := children[s.ID]
		slices.SortFunc(cs, func(a, b span) int { return int(a.Start - b.Start) })
		covered, end := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, end), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += s.dur() - time.Duration(covered)
	}
	return self
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceLayers are the layers self time is reported for; "bench" is the
// benchmark's own glue between calls (root spans).
var traceLayers = []string{"bench", "server", "grid", "partition", "tier", "core", "sim", "experiments", "apps"}

// familySpan names the partition span of a canonical partitioner name.
func familySpan(name string) string {
	switch {
	case strings.HasPrefix(name, "postmap("):
		return "partition.postmap"
	case strings.HasPrefix(name, "nature+fable"):
		return "partition.nature_fable"
	case strings.HasPrefix(name, "patch"):
		return "partition.patch_lpt"
	}
	return "partition.domain"
}

func runTraced(ctx context.Context, e *env, workload string) (*result, error) {
	t := &tracer{t0: time.Now()}
	m := map[string]metric{}
	attempted, failed := 0, 0

	// paper-eval: trace generation, then one cold evaluation pass. The
	// pass runs first, before anything else partitions in this process.
	root := t.request("bench.setup")
	trs := make(map[string]*trace.Trace)
	for _, app := range apps.Names {
		var err error
		t.do("apps.generate."+app, root, func() { trs[app], err = apps.Generate(ctx, app, apps.PaperConfig(), apps.PaperSteps) })
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", app, err)
		}
		m["apps.generate_s."+app] = metric{t.quantile("apps.generate."+app, 0.5, time.Second), "s"}
	}
	t.close(root)

	memoP, memoE, memoM := sim.MemoStats()
	chainBefore := chainCounts()
	root = t.request("bench.pass")
	calls, _, ok, err := evalPass(ctx, e, trs)
	t.close(root)
	if err != nil {
		return nil, err
	}
	attempted++
	if !ok {
		failed++
		e.problem("paper-eval: rendered evaluation differs from the pinned hash")
	}
	for _, c := range calls {
		t.add("experiments."+c.exp, root, c.start, c.took)
	}
	p1, e1, m1 := sim.MemoStats()
	m["sim.memo_partitions"] = metric{float64(p1 - memoP), "count"}
	m["sim.memo_evaluations"] = metric{float64(e1 - memoE), "count"}
	m["sim.memo_migrations"] = metric{float64(m1 - memoM), "count"}
	m["partition.chain_hit_frac"] = metric{chainCounts().hitFrac(chainBefore), "frac"}
	for _, exp := range []string{"fig1", "fig4_7", "trajectory", "ablationA", "ablationB", "ablationC", "ablationD", "ablationE"} {
		m["experiments."+exp+"_s"] = metric{t.total("experiments." + exp).Seconds(), "s"}
	}
	m["experiments.pass_s"] = metric{t.spans[root-1].dur().Seconds(), "s"}

	// regrid-stream: one whole cycle of application runs, in process.
	plan, err := newRegridPlan(trs, e.seed)
	if err != nil {
		return nil, err
	}
	runs, err := plan.cycle()
	if err != nil {
		return nil, err
	}
	chainBefore = chainCounts()
	for _, r := range runs {
		n, err := replayRun(ctx, t, trs, r)
		if err != nil {
			return nil, err
		}
		attempted += n
	}
	m["partition.chain_hit_frac_stream"] = metric{chainCounts().hitFrac(chainBefore), "frac"}

	// replay-hot: the hit path against an in-process cache and disk tier.
	in, err := newReplayInputs(ctx, trs, e.seed)
	if err != nil {
		return nil, err
	}
	n, err := replayHot(ctx, t, e, in)
	if err != nil {
		return nil, err
	}
	attempted += n

	// Span-derived metrics.
	us, msec := time.Microsecond, time.Millisecond
	for _, s := range []string{"server.decode", "server.encode", "server.cache_get", "grid.validate", "grid.signature",
		"grid.delta", "partition.loads", "tier.get", "core.select"} {
		m[s+"_us"] = metric{t.quantile(s, 0.5, us), "us"}
	}
	for _, f := range []string{"partition.domain", "partition.nature_fable", "partition.patch_lpt", "partition.postmap"} {
		m[f+"_ms_p50"] = metric{t.quantile(f, 0.5, msec), "ms"}
		m[f+"_ms_p99"] = metric{t.quantile(f, 0.99, msec), "ms"}
	}
	for _, s := range []string{"sim.evaluate", "sim.migration", "sim.simulate_warm"} {
		m[s+"_ms"] = metric{t.quantile(s, 0.5, msec), "ms"}
	}
	self := t.selfTimes()
	for _, layer := range traceLayers {
		m["self."+layer+"_ms"] = metric{float64(self[layer]) / float64(msec), "ms"}
	}
	if err := t.write(e.spanPath(workload)); err != nil {
		return nil, err
	}
	logf("traced: %d spans over %d requests written to %s", len(t.spans), t.req, e.spanPath(workload))

	// The translation property the regrid sample relied on (checked after
	// it, so the check's partitions cannot warm the sample's caches).
	if err := checkTranslation(ctx, e, trs, streamSpecs, plan.shifts); err != nil {
		return nil, err
	}

	// Counters only a running samrd has, from short untraced phases.
	a, f, err := httpCounters(ctx, e, trs, in, m)
	if err != nil {
		return nil, err
	}
	attempted += a
	failed += f
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// chainStats are partition.CacheStats counters.
type chainStats struct{ hits, misses, shared uint64 }

func chainCounts() chainStats {
	h, mi, s, _, _ := partition.CacheStats()
	return chainStats{h, mi, s}
}

// hitFrac is the hit share of the lookups made since before.
func (c chainStats) hitFrac(before chainStats) float64 {
	h := c.hits - before.hits
	all := h + c.misses - before.misses + c.shared - before.shared
	if all == 0 {
		return 0
	}
	return float64(h) / float64(all)
}

// replayRun replays one regrid-stream application run through the
// layers samrd's handlers call, then evaluates its partitions with the
// simulator. It returns the number of requests replayed.
func replayRun(ctx context.Context, t *tracer, trs map[string]*trace.Trace, r appRun) (int, error) {
	snaps := trs[r.app].Snapshots[r.start:r.end]
	hs := make([]*grid.Hierarchy, len(snaps))
	for i, s := range snaps {
		hs[i] = translate(s.H, r.shift)
	}
	var parted []*grid.Hierarchy
	var as []*partition.Assignment
	var err error
	respond := func(root int, h *grid.Hierarchy, sig geom.Signature, p partition.Partitioner, np int) {
		var a *partition.Assignment
		t.do(familySpan(p.Name()), root, func() { a, err = p.Partition(ctx, h, np) })
		if err != nil {
			return
		}
		encodeResult(t, root, h, sig, p.Name(), np, a, server.CacheMiss)
		parted, as = append(parted, h), append(as, a)
	}
	if !r.session {
		for _, h := range hs {
			w := server.FromHierarchy(h)
			body := mustMarshal(server.PartitionRequest{Hierarchy: &w, Partitioner: r.spec, NProcs: r.nprocs})
			root := t.request("bench.request")
			hg, sig, req, derr := decodeFull[server.PartitionRequest](t, root, body)
			if derr != nil {
				return 0, derr
			}
			p, perr := server.ParsePartitioner(req.Partitioner)
			if perr != nil {
				return 0, perr
			}
			respond(root, hg, sig, p, req.NProcs)
			t.close(root)
			if err != nil {
				return 0, err
			}
		}
	} else {
		w := server.FromHierarchy(hs[0])
		body := mustMarshal(server.SessionCreateRequest{Hierarchy: &w, Partitioner: r.spec, NProcs: r.nprocs})
		root := t.request("bench.request")
		var req server.SessionCreateRequest
		t.do("server.decode", root, func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return 0, err
		}
		cur := gridFromWire(*req.Hierarchy)
		t.do("grid.validate", root, func() { err = cur.Validate() })
		if err != nil {
			return 0, err
		}
		t.do("grid.track", root, func() { cur.TrackSignature(); cur.Signature() })
		t.close(root)
		sess, err := server.ParsePartitioner(req.Partitioner)
		if err != nil {
			return 0, err
		}
		for i := 1; i < len(hs); i++ {
			body := mustMarshal(server.SessionStepRequest{Levels: levelOps(hs[i-1], hs[i])})
			root := t.request("bench.request")
			var step server.SessionStepRequest
			t.do("server.decode", root, func() { err = json.Unmarshal(body, &step) })
			if err != nil {
				return 0, err
			}
			delta := wireDelta(step.Levels)
			var next *grid.Hierarchy
			var sig geom.Signature
			t.do("grid.delta", root, func() {
				if next, err = cur.WithDelta(delta); err == nil {
					sig = next.Signature()
				}
			})
			if err != nil {
				return 0, err
			}
			p := sess
			if !r.stateful() {
				p, _ = server.ParsePartitioner(r.name)
			}
			respond(root, next, sig, p, r.nprocs)
			t.close(root)
			if err != nil {
				return 0, err
			}
			cur = next
		}
	}

	// The simulator's view of the same run: cold Evaluate per partitioned
	// snapshot, Migration per consecutive pair.
	root := t.request("bench.simulate")
	m := sim.DefaultMachine()
	for i, h := range parted {
		t.do("sim.evaluate", root, func() { _, err = sim.Evaluate(ctx, h, as[i], m) })
		if err != nil {
			return 0, err
		}
		if i > 0 {
			t.do("sim.migration", root, func() { sim.Migration(parted[i-1], h, as[i-1], as[i]) })
		}
	}
	t.close(root)
	return len(hs), nil
}

// decodeFull replays the front of a full-hierarchy handler: JSON decode,
// Validate, and an untracked Signature.
func decodeFull[R server.PartitionRequest | server.SelectRequest](t *tracer, root int, body []byte) (*grid.Hierarchy, geom.Signature, R, error) {
	var req R
	var err error
	t.do("server.decode", root, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return nil, geom.Signature{}, req, err
	}
	var w *server.Hierarchy
	switch r := any(&req).(type) {
	case *server.PartitionRequest:
		w = r.Hierarchy
	case *server.SelectRequest:
		w = r.Hierarchy
	}
	h := gridFromWire(*w)
	t.do("grid.validate", root, func() { err = h.Validate() })
	if err != nil {
		return nil, geom.Signature{}, req, err
	}
	var sig geom.Signature
	if _, ok := any(req).(server.PartitionRequest); ok {
		t.do("grid.signature", root, func() { sig = h.Signature() })
	}
	return h, sig, req, nil
}

// encodeResult replays the back of a partition handler: loads and
// imbalance (recomputed on every reply, hits included), then encode.
func encodeResult(t *tracer, root int, h *grid.Hierarchy, sig geom.Signature, name string, np int, a *partition.Assignment, disp string) {
	var loads []int64
	var imb float64
	t.do("partition.loads", root, func() { loads, imb = a.Loads(h), a.Imbalance(h) })
	res := server.PartitionResult{Signature: sig.String(), Partitioner: name, NProcs: np, Loads: loads, Imbalance: imb,
		Cached: disp == server.CacheHit || disp == server.CacheTier, Cache: disp, Fragments: make([]server.Fragment, len(a.Fragments))}
	for i, f := range a.Fragments {
		res.Fragments[i] = server.Fragment{Level: f.Level, Box: wireBox(f.Box), Owner: f.Owner}
	}
	t.do("server.encode", root, func() { mustMarshal(server.PartitionResponse{Results: []server.PartitionResult{res}}) })
}

// wireDelta converts decoded session level ops to grid deltas.
func wireDelta(ops []server.LevelOp) []grid.LevelDelta {
	step := make([]grid.LevelDelta, len(ops))
	for l, op := range ops {
		if op.Op == server.LevelKeep {
			step[l] = grid.Keep()
			continue
		}
		boxes := make(geom.BoxList, len(op.Boxes))
		for i, wb := range op.Boxes {
			boxes[i] = geomBox(wb)
		}
		step[l] = grid.Replace(boxes)
	}
	return step
}

// replayHot replays a seeded sample of the replay-hot mix: head keys
// through a warmed in-process PartitionCache, tail keys through a disk
// store, selects through the meta-partitioner, and warm trace
// simulations. It returns the number of requests replayed.
func replayHot(ctx context.Context, t *tracer, e *env, in *replayInputs) (int, error) {
	const memory = 256 // samrd's default cache size
	cache := server.NewPartitionCache(memory)
	store, err := tier.OpenDiskStore(filepath.Join(e.dir, "traced-tier"), 256<<20)
	if err != nil {
		return 0, err
	}
	keys := make([]server.CacheKey, len(in.hot))
	for rank, k := range in.hot {
		keys[rank] = server.CacheKey{Sig: in.trs[k.app].Snapshots[k.snap].H.Signature(), Partitioner: k.name, NProcs: k.nprocs}
		if rank < memory {
			cache.Add(keys[rank], in.assign[rank])
		} else if err := store.Put(tierKey(keys[rank]), tier.EncodeAssignment(in.assign[rank])); err != nil {
			return 0, err
		}
	}
	rng := rand.New(rand.NewSource(e.seed ^ 0x7e57))
	n := 0
	for _, r := range in.mix(rng, 600, 0) {
		switch r.kind {
		case "partition":
			root := t.request("bench.request")
			h, sig, _, err := decodeFull[server.PartitionRequest](t, root, in.post[r.idx])
			if err != nil {
				return 0, err
			}
			var a *partition.Assignment
			disp := server.CacheHit
			if r.idx < memory {
				t.do("server.cache_get", root, func() { a, _ = cache.Get(keys[r.idx]) })
			} else {
				disp = server.CacheTier
				t.do("tier.get", root, func() {
					if blob, ok := store.Get(tierKey(keys[r.idx])); ok {
						a, err = tier.DecodeAssignment(blob)
					}
				})
			}
			if a == nil || err != nil {
				return 0, fmt.Errorf("hot key %d not served from memory or tier: %v", r.idx, err)
			}
			encodeResult(t, root, h, sig, in.hot[r.idx].name, in.hot[r.idx].nprocs, a, disp)
			t.close(root)
		case "select":
			root := t.request("bench.request")
			h, _, req, err := decodeFull[server.SelectRequest](t, root, in.selBody[r.idx])
			if err != nil {
				return 0, err
			}
			var resp server.SelectResponse
			t.do("core.select", root, func() { resp = expectedSelect(h, req.NProcs) })
			t.do("server.encode", root, func() { mustMarshal(resp) })
			t.close(root)
		default:
			c := in.sims[r.idx]
			p, err := server.ParsePartitioner(c.spec)
			if err != nil {
				return 0, err
			}
			root := t.request("bench.simulate")
			t.do("sim.simulate_warm", root, func() { _, err = sim.SimulateTrace(ctx, in.trs[c.app], p, c.nprocs, sim.DefaultMachine()) })
			t.close(root)
			if err != nil {
				return 0, err
			}
		}
		n++
	}
	return n, nil
}

func tierKey(k server.CacheKey) string {
	return tier.Key(k.Sig.String(), k.Partitioner, strconv.Itoa(k.NProcs))
}

// httpCounters runs short untraced phases of the two HTTP workloads
// against real samrd processes and records what only they expose:
// /v1/stats deltas, client lateness and per-request-kind latencies. It
// returns the requests attempted and failed.
func httpCounters(ctx context.Context, e *env, trs map[string]*trace.Trace, in *replayInputs, m map[string]metric) (int, int, error) {
	stream := map[string]*trace.Trace{}
	for _, app := range streamApps {
		stream[app] = trs[app]
	}
	if err := writeTraces(filepath.Join(e.dir, "traces"), stream); err != nil {
		return 0, 0, err
	}
	d, err := startHot(ctx, e, in, 0)
	if err != nil {
		return 0, 0, err
	}
	o, err := runReplay(ctx, e, d, in, time.Second, 2, 3*time.Second)
	d.stop()
	if err != nil {
		return 0, 0, err
	}
	look := float64(o.openDelta.lookups())
	hits := o.latencies("partition")
	m["server.cache_hit_frac"] = metric{float64(o.openDelta.hits) / look, "frac"}
	m["server.tier_hit_frac"] = metric{float64(o.openDelta.tier) / look, "frac"}
	m["server.misses"] = metric{float64(o.openDelta.misses), "count"}
	m["client.late_ms"] = metric{quantile(o.lateness(), 0.99), "ms"}
	m["client.hit_p50_ms"] = metric{quantile(hits, 0.5), "ms"}
	m["client.hit_p99_ms"] = metric{quantile(hits, 0.99), "ms"}
	m["client.select_p50_ms"] = metric{median(o.latencies("select")), "ms"}
	m["client.simulate_p50_ms"] = metric{median(o.latencies("simulate")), "ms"}
	m["client.hot_rps"] = metric{median(o.sliceRate), "1/s"}

	plan, err := newRegridPlan(trs, e.seed)
	if err != nil {
		return 0, 0, err
	}
	d, err = startDaemon(ctx, e, "samrd-stream")
	if err != nil {
		return 0, 0, err
	}
	so, err := runStream(ctx, e, d, plan, 3*time.Second)
	d.stop()
	if err != nil {
		return 0, 0, err
	}
	m["server.stream_hits"] = metric{float64(so.delta.hits), "count"}
	m["client.step_p50_ms"] = metric{quantile(so.steps, 0.5), "ms"}
	m["client.step_p99_ms"] = metric{quantile(so.steps, 0.99), "ms"}
	m["client.miss_p50_ms"] = metric{quantile(so.posts, 0.5), "ms"}
	m["client.miss_p99_ms"] = metric{quantile(so.posts, 0.99), "ms"}
	m["client.regrids_per_s"] = metric{float64(so.regrids) / so.elapsed.Seconds(), "1/s"}
	return o.attempted + so.attempted, o.failed + so.failed, nil
}
