package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"samr/internal/apps"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/server"
	"samr/internal/trace"
)

// The HTTP workloads draw from three of the four paper traces: RM2D's
// generation alone takes longer than the other three together, and
// paper-eval already pays for it.
var streamApps = []string{"BL2D", "SC2D", "TP2D"}

// streamSpecs are the partitioner specs the regrid stream mixes, one per
// family plus the stateful post-mapping wrapper.
var streamSpecs = []string{"domain-hilbert-u2", "nature+fable", "patch-lpt", "postmap(domain-hilbert-u2)"}

var streamProcs = []int{16, 64}

// generateTraces runs apps.Generate for each named application at the
// paper configuration, uncached, and reports each generation's time.
func generateTraces(ctx context.Context, names []string) (map[string]*trace.Trace, map[string]time.Duration, error) {
	trs := make(map[string]*trace.Trace, len(names))
	took := make(map[string]time.Duration, len(names))
	for _, app := range names {
		t0 := time.Now()
		tr, err := apps.Generate(ctx, app, apps.PaperConfig(), apps.PaperSteps)
		if err != nil {
			return nil, nil, fmt.Errorf("generate %s: %w", app, err)
		}
		took[app] = time.Since(t0)
		trs[app] = tr
	}
	return trs, took, nil
}

// writeTraces stores traces as <dir>/<lower-case app>.trc, the file
// layout samrd's -traces registry loads.
func writeTraces(dir string, trs map[string]*trace.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for app, tr := range trs {
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			return fmt.Errorf("encode %s: %w", app, err)
		}
		if err := os.WriteFile(filepath.Join(dir, strings.ToLower(app)+".trc"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// shiftPool returns every admissible translation: a sum of an even
// number of distinct powers of two in [2^12, 2^19]. Even parity keeps
// the Hilbert curve's orientation, so a translated hierarchy partitions
// exactly like the original one moved by the same offset; an arbitrary
// shift (64, 4096) does not. The pool is shuffled by rng.
func shiftPool(rng *rand.Rand) []int {
	var vs []int
	for mask := 1; mask < 1<<8; mask++ {
		if bits.OnesCount(uint(mask))%2 != 0 {
			continue
		}
		v := 0
		for b := 0; b < 8; b++ {
			if mask&(1<<b) != 0 {
				v += 1 << (12 + b)
			}
		}
		vs = append(vs, v)
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

func shiftBox(b geom.Box, s int) geom.Box {
	for d := 0; d < b.Dim; d++ {
		b.Lo[d] += s
		b.Hi[d] += s
	}
	return b
}

// translate moves h by (v, v) at level 0, scaled by the refinement
// ratio at each finer level. The result has the same work but a new
// content signature, so it misses every content-addressed cache.
func translate(h *grid.Hierarchy, v int) *grid.Hierarchy {
	out := &grid.Hierarchy{Domain: shiftBox(h.Domain, v), RefRatio: h.RefRatio}
	s := v
	for _, lev := range h.Levels {
		boxes := make(geom.BoxList, len(lev.Boxes))
		for i, b := range lev.Boxes {
			boxes[i] = shiftBox(b, s)
		}
		out.Levels = append(out.Levels, grid.Level{Boxes: boxes})
		s *= h.RefRatio
	}
	return out
}

// translateAssignment moves an assignment of h to the matching
// assignment of translate(h, v).
func translateAssignment(a *partition.Assignment, v, ratio int) *partition.Assignment {
	out := &partition.Assignment{NumProcs: a.NumProcs, Fragments: make([]partition.Fragment, len(a.Fragments))}
	for i, f := range a.Fragments {
		s := v
		for l := 0; l < f.Level; l++ {
			s *= ratio
		}
		f.Box = shiftBox(f.Box, s)
		out.Fragments[i] = f
	}
	return out
}

func wireBox(b geom.Box) server.Box {
	w := server.Box{Dim: b.Dim, Lo: make([]int, b.Dim), Hi: make([]int, b.Dim)}
	for d := 0; d < b.Dim; d++ {
		w.Lo[d], w.Hi[d] = b.Lo[d], b.Hi[d]
	}
	return w
}

func wireBoxes(bs geom.BoxList) []server.Box {
	out := make([]server.Box, len(bs))
	for i, b := range bs {
		out[i] = wireBox(b)
	}
	return out
}

// geomBox converts a wire box with samrd's padding convention for
// unused axes.
func geomBox(wb server.Box) geom.Box {
	b := geom.Box{Dim: wb.Dim}
	for d := 0; d < geom.MaxDim; d++ {
		b.Lo[d], b.Hi[d] = 0, 1
	}
	for d := 0; d < wb.Dim; d++ {
		b.Lo[d], b.Hi[d] = wb.Lo[d], wb.Hi[d]
	}
	return b
}

// gridFromWire converts a wire hierarchy back to a grid hierarchy
// without validating it (the traced run times Validate on its own).
func gridFromWire(w server.Hierarchy) *grid.Hierarchy {
	h := &grid.Hierarchy{Domain: geomBox(w.Domain), RefRatio: w.RefRatio}
	for _, lev := range w.Levels {
		boxes := make(geom.BoxList, len(lev))
		for i, wb := range lev {
			boxes[i] = geomBox(wb)
		}
		h.Levels = append(h.Levels, grid.Level{Boxes: boxes})
	}
	return h
}

// levelOps is the session delta from prev to next: keep for every level
// whose patch set is unchanged, replace otherwise.
func levelOps(prev, next *grid.Hierarchy) []server.LevelOp {
	ops := make([]server.LevelOp, len(next.Levels))
	for l, lev := range next.Levels {
		if l < len(prev.Levels) && boxesEqual(prev.Levels[l].Boxes, lev.Boxes) {
			ops[l] = server.LevelOp{Op: server.LevelKeep}
		} else {
			ops[l] = server.LevelOp{Op: server.LevelReplace, Boxes: wireBoxes(lev.Boxes)}
		}
	}
	return ops
}

func boxesEqual(a, b geom.BoxList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// partitionBody renders the exact /v1/partition (or session step)
// response samrd sends for assignment a of hierarchy h translated by v,
// with cache disposition disp. Loads and imbalance are translation
// invariant; the signature is recomputed on the translated hierarchy.
func partitionBody(h *grid.Hierarchy, v int, name string, nprocs int, a *partition.Assignment, disp string) []byte {
	ht := h
	at := a
	if v != 0 {
		ht = translate(h, v)
		at = translateAssignment(a, v, h.RefRatio)
	}
	res := server.PartitionResult{
		Signature:   ht.Signature().String(),
		Partitioner: name,
		NProcs:      nprocs,
		Fragments:   make([]server.Fragment, len(at.Fragments)),
		Loads:       a.Loads(h),
		Imbalance:   a.Imbalance(h),
		Cached:      disp == server.CacheHit || disp == server.CacheTier,
		Cache:       disp,
	}
	for i, f := range at.Fragments {
		res.Fragments[i] = server.Fragment{Level: f.Level, Box: wireBox(f.Box), Owner: f.Owner}
	}
	return encodeBody(server.PartitionResponse{Results: []server.PartitionResult{res}})
}

// encodeBody encodes v exactly as samrd's handlers do (json.Encoder,
// trailing newline).
func encodeBody(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err) // wire types always encode
	}
	return buf.Bytes()
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types always encode
	}
	return b
}

// checkTranslation verifies, for every spec in specs, that partitioning
// a translated snapshot gives the translated partition of the original:
// same fragments moved by the shift, same imbalance. It runs before any
// timing; a failure makes the run incorrect.
func checkTranslation(ctx context.Context, e *env, trs map[string]*trace.Trace, specs []string, shifts []int) error {
	rng := rand.New(rand.NewSource(e.seed ^ 0x5e1f))
	checked := 0
	for _, app := range streamApps {
		tr := trs[app]
		for k := 0; k < 2; k++ {
			h := tr.Snapshots[rng.Intn(len(tr.Snapshots))].H
			v := shifts[rng.Intn(len(shifts))]
			ht := translate(h, v)
			for _, spec := range specs {
				for _, np := range streamProcs {
					p, err := server.ParsePartitioner(spec)
					if err != nil {
						return err
					}
					a, err := p.Partition(ctx, h, np)
					if err != nil {
						return err
					}
					p, _ = server.ParsePartitioner(spec)
					at, err := p.Partition(ctx, ht, np)
					if err != nil {
						return err
					}
					want := partitionBody(h, v, spec, np, a, server.CacheMiss)
					got := partitionBody(ht, 0, spec, np, at, server.CacheMiss)
					if !bytes.Equal(want, got) || a.Imbalance(h) != at.Imbalance(ht) {
						e.problem("translation self-check: %s %s nprocs=%d shift=%d changes the partition", app, spec, np, v)
					}
					checked++
				}
			}
		}
	}
	logf("translation self-check: %d (snapshot, spec, nprocs) cases", checked)
	return nil
}
