package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"samr/internal/apps"
	"samr/internal/experiments"
	"samr/internal/trace"
)

// paper-eval: the researcher's path, in process, with no HTTP. Set-up
// generates the four paper traces through apps.Generate (uncached, so
// setup_s tracks the AMR substrate); the measured pass renders the
// paper's full evaluation set at 16 processors with every memo cache
// cold, since the pass is the first thing this process partitions.

// paperEvalSHA256 is the sha256 of the rendered evaluation. It equals
// the sha256 of `samrbench -experiment all` stdout (md5
// e7de2041c9262faaf852a271e9404b8b) at the commit that introduced this
// benchmark; a pass rendering anything else counts as failed.
const paperEvalSHA256 = "f0bacfb7d4da79d1661f3a27665201531544ce3c12450cfdd8a2178803372e6e"

// experimentCall is one timed call into internal/experiments.
type experimentCall struct {
	exp, app string
	start    time.Time
	took     time.Duration
}

// renderEvaluation renders what `samrbench -experiment all` prints, in
// the same order and format, and times each experiment call.
func renderEvaluation(ctx context.Context, w io.Writer, trs map[string]*trace.Trace, procs int) ([]experimentCall, error) {
	var calls []experimentCall
	timed := func(exp, app string, f func() error) error {
		t0 := time.Now()
		err := f()
		calls = append(calls, experimentCall{exp: exp, app: app, start: t0, took: time.Since(t0)})
		return err
	}
	var fig *experiments.Figure
	var tab *experiments.Table
	if err := timed("fig1", "BL2D", func() (err error) { fig, err = experiments.Fig1(ctx, trs["BL2D"], procs); return }); err != nil {
		return nil, err
	}
	fig.Print(w)
	for i, app := range []string{"RM2D", "BL2D", "SC2D", "TP2D"} {
		var v *experiments.Validation
		if err := timed("fig4_7", app, func() (err error) { v, err = experiments.FigModelVsActual(ctx, trs[app], procs); return }); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "--- %s (paper Figure %d) ---\n", v.App, 4+i)
		v.Comm.Print(w)
		v.Mig.Print(w)
	}
	if err := timed("trajectory", "BL2D", func() (err error) {
		fig, err = experiments.ClassificationTrajectory(ctx, trs["BL2D"], procs)
		return
	}); err != nil {
		return nil, err
	}
	fig.Print(w)
	figs := []struct {
		name string
		f    func(context.Context, *trace.Trace, int) (*experiments.Figure, error)
	}{{"ablationA", experiments.AblationDenominator}}
	tabs := []struct {
		name string
		f    func(context.Context, *trace.Trace, int) (*experiments.Table, error)
	}{{"ablationB", experiments.AblationPartitioners}, {"ablationC", experiments.MetaVsStatic}}
	for _, a := range figs {
		for _, app := range apps.Names {
			if err := timed(a.name, app, func() (err error) { fig, err = a.f(ctx, trs[app], procs); return }); err != nil {
				return nil, err
			}
			fig.Print(w)
		}
	}
	for _, a := range tabs {
		for _, app := range apps.Names {
			if err := timed(a.name, app, func() (err error) { tab, err = a.f(ctx, trs[app], procs); return }); err != nil {
				return nil, err
			}
			tab.Print(w)
		}
	}
	for _, app := range apps.Names {
		if err := timed("ablationD", app, func() (err error) {
			fig, err = experiments.AblationAbsoluteImportance(ctx, trs[app], procs)
			return
		}); err != nil {
			return nil, err
		}
		fig.Print(w)
	}
	for _, app := range apps.Names {
		if err := timed("ablationE", app, func() (err error) { tab, err = experiments.AblationPostMapping(ctx, trs[app], procs); return }); err != nil {
			return nil, err
		}
		tab.Print(w)
	}
	return calls, nil
}

// evalPass renders one evaluation and checks its hash.
func evalPass(ctx context.Context, e *env, trs map[string]*trace.Trace) ([]experimentCall, time.Duration, bool, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	calls, err := renderEvaluation(ctx, &buf, trs, experiments.DefaultProcs)
	took := time.Since(t0)
	if err != nil {
		return nil, 0, false, err
	}
	sum := sha256.Sum256(buf.Bytes())
	ok := hex.EncodeToString(sum[:]) == paperEvalSHA256
	if !ok {
		path := e.spanPath("paper-eval") + ".mismatch.txt"
		os.WriteFile(path, buf.Bytes(), 0o644) //nolint:errcheck // best-effort diagnostic
		logf("paper-eval: rendered evaluation sha256 %x differs from the pinned %s (output in %s)", sum, paperEvalSHA256, path)
	}
	return calls, took, ok, nil
}

func runPaperEval(ctx context.Context, e *env) (*result, error) {
	t0 := time.Now()
	trs, took, err := generateTraces(ctx, apps.Names)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	logf("paper-eval: trace generation %.2fs (RM2D %.2fs, BL2D %.2fs, SC2D %.2fs, TP2D %.2fs)", setup.Seconds(),
		took["RM2D"].Seconds(), took["BL2D"].Seconds(), took["SC2D"].Seconds(), took["TP2D"].Seconds())

	steal := startSteal()
	calls, evalTook, ok, err := evalPass(ctx, e, trs)
	if err != nil {
		return nil, err
	}
	logf("paper-eval: cpu steal %.1f%% during the measured pass", 100*steal.share())
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	logf("paper-eval: cold evaluation pass %.2fs over %d experiment calls, output hash ok=%v", evalTook.Seconds(), len(calls), ok)
	failed := 0
	if !ok {
		failed = 1
	}
	// The operation is one cold pass, measured once; its p50 and p90 are
	// that pass's time. (Per-call percentiles over the 26 experiment
	// calls fall in gaps between calls of very different sizes and moved
	// by 20% between identical runs; the calls are per-layer metrics of
	// the traced run instead.) Set-up, ~24 s of trace generation, runs
	// once too.
	passMS := ms(evalTook)
	return &result{
		Correct:   ok,
		Attempted: 1,
		Failed:    failed,
		Metrics:   endToEnd([]time.Duration{setup}, rss, 1/evalTook.Seconds(), passMS, passMS),
	}, nil
}
