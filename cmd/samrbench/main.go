// Command samrbench reproduces the paper's evaluation figures and the
// repository's ablations, printing each figure's data series and
// agreement statistics as text tables.
//
// Figure mapping (paper -> experiment):
//
//	fig1 -> BL2D dynamic behaviour under a static partitioner
//	fig4 -> RM2D  model vs actual (communication and data migration)
//	fig5 -> BL2D  model vs actual
//	fig6 -> SC2D  model vs actual
//	fig7 -> TP2D  model vs actual
//	trajectory -> Figure 3 (right): classification-space locus
//	ablationA..E -> DESIGN.md ablations
//	sweep -> BL2D static hybrid across a processor-count ladder
//
// Usage:
//
//	samrbench -experiment fig5
//	samrbench -experiment all -procs 16
//	samrbench -experiment fig4 -quick      (reduced scale, for smoke tests)
//	samrbench -experiment fig1 -trace bl2d.trc
//	samrbench -experiment sweep -cachestats  (memoization counters on stderr)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"

	"samr/internal/apps"
	"samr/internal/experiments"
	"samr/internal/partition"
	"samr/internal/sim"
	"samr/internal/trace"
)

func main() {
	var (
		exp        = flag.String("experiment", "all", "fig1, fig4, fig5, fig6, fig7, trajectory, ablationA, ablationB, ablationC, ablationD, ablationE, sweep, or all (the paper set; sweep runs standalone only)")
		procs      = flag.Int("procs", experiments.DefaultProcs, "number of processors to simulate")
		quick      = flag.Bool("quick", false, "use reduced-scale traces (16x16 base, 3 levels, 20 steps)")
		trPath     = flag.String("trace", "", "use a trace file instead of generating the experiment's default trace")
		format     = flag.String("format", "table", "figure output format: table or csv")
		cachestats = flag.Bool("cachestats", false, "print the memoization-cache counters to stderr after the run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	// Ctrl-C cancels the context; the cancellation threads through the
	// experiment pipeline into every partitioner, which aborts mid-batch
	// instead of running the remaining figures to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := profiled(*cpuprofile, *memprofile, func() error {
		return run(ctx, *exp, *procs, *quick, *trPath, *format == "csv")
	}); err != nil {
		fmt.Fprintln(os.Stderr, "samrbench:", err)
		os.Exit(1)
	}
	if *cachestats {
		printCacheStats()
	}
}

// printCacheStats reports the memoization counters of the run to
// stderr (stderr so table/CSV output stays pipeline-clean): the
// partition-layer content-addressed caches (unit chains, hybrid preps,
// level indexes) and the simulator's in-run dedup savings.
func printCacheStats() {
	hits, misses, shared, entries, capacity := partition.CacheStats()
	parts, evals, migs := sim.MemoStats()
	fmt.Fprintf(os.Stderr, "cachestats: unit-chains hits=%d misses=%d shared=%d entries=%d/%d\n",
		hits, misses, shared, entries, capacity)
	fmt.Fprintf(os.Stderr, "cachestats: sim-memo partitions=%d evaluations=%d migration-shortcuts=%d\n",
		parts, evals, migs)
}

// profiled brackets f with the optional pprof captures so hot-path
// claims about the experiment pipeline are inspectable.
func profiled(cpuprofile, memprofile string, f func() error) error {
	if cpuprofile != "" {
		cf, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := f(); err != nil {
		return err
	}
	if memprofile != "" {
		mf, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC() // flush recent garbage so the profile shows live objects
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return err
		}
	}
	return nil
}

// emit prints a figure in the selected format.
func emit(f *experiments.Figure, csvOut bool) error {
	if csvOut {
		return f.WriteCSV(os.Stdout)
	}
	f.Print(os.Stdout)
	return nil
}

// runFn renders one experiment over one application's trace.
type runFn func(ctx context.Context, tr *trace.Trace, procs int, csvOut bool) error

// figure adapts a figure experiment: its output honours -format.
func figure(fn func(context.Context, *trace.Trace, int) (*experiments.Figure, error)) runFn {
	return func(ctx context.Context, tr *trace.Trace, procs int, csvOut bool) error {
		f, err := fn(ctx, tr, procs)
		if err != nil {
			return err
		}
		return emit(f, csvOut)
	}
}

// table adapts a table experiment: tables always print as text.
func table(fn func(context.Context, *trace.Trace, int) (*experiments.Table, error)) runFn {
	return func(ctx context.Context, tr *trace.Trace, procs int, _ bool) error {
		tb, err := fn(ctx, tr, procs)
		if err != nil {
			return err
		}
		tb.Print(os.Stdout)
		return nil
	}
}

// modelVsActual renders paper Figure num: the communication and data
// migration model-vs-actual figures of one application.
func modelVsActual(num string) runFn {
	return func(ctx context.Context, tr *trace.Trace, procs int, csvOut bool) error {
		v, err := experiments.FigModelVsActual(ctx, tr, procs)
		if err != nil {
			return err
		}
		if !csvOut {
			fmt.Printf("--- %s (paper Figure %s) ---\n", v.App, num)
		}
		if err := emit(v.Comm, csvOut); err != nil {
			return err
		}
		return emit(v.Mig, csvOut)
	}
}

// sweep runs the static hybrid across the processor-count ladder. The
// sweep is a ladder view; -procs widens the default ladder with the
// requested count instead of replacing it.
func sweep(ctx context.Context, tr *trace.Trace, procs int, _ bool) error {
	ladder := append([]int(nil), experiments.DefaultProcsLadder...)
	if !slices.Contains(ladder, procs) {
		ladder = append(ladder, procs)
		sort.Ints(ladder)
	}
	tb, err := experiments.ProcsSweep(ctx, tr, partition.NewNatureFable(), ladder)
	if err != nil {
		return err
	}
	tb.Print(os.Stdout)
	return nil
}

// experimentTable maps each experiment to the application whose trace
// it runs on ("" runs it once per application, in apps.Names order)
// and its renderer.
var experimentTable = map[string]struct {
	app string
	run runFn
}{
	"fig1":       {"BL2D", figure(experiments.Fig1)},
	"fig4":       {"RM2D", modelVsActual("4")},
	"fig5":       {"BL2D", modelVsActual("5")},
	"fig6":       {"SC2D", modelVsActual("6")},
	"fig7":       {"TP2D", modelVsActual("7")},
	"trajectory": {"BL2D", figure(experiments.ClassificationTrajectory)},
	"ablationA":  {"", figure(experiments.AblationDenominator)},
	"ablationB":  {"", table(experiments.AblationPartitioners)},
	"ablationC":  {"", table(experiments.MetaVsStatic)},
	"ablationD":  {"", figure(experiments.AblationAbsoluteImportance)},
	"ablationE":  {"", table(experiments.AblationPostMapping)},
	"sweep":      {"BL2D", sweep},
}

func run(ctx context.Context, exp string, procs int, quick bool, trPath string, csvOut bool) error {
	load := func(app string) (*trace.Trace, error) {
		if trPath != "" {
			f, err := os.Open(trPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return trace.Read(f)
		}
		if quick {
			return apps.QuickTrace(ctx, app)
		}
		return apps.PaperTrace(ctx, app)
	}

	one := func(name string) error {
		e, ok := experimentTable[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		appNames := []string{e.app}
		if e.app == "" {
			appNames = apps.Names
		}
		for _, app := range appNames {
			tr, err := load(app)
			if err != nil {
				return err
			}
			if err := e.run(ctx, tr, procs, csvOut); err != nil {
				return err
			}
		}
		return nil
	}

	if exp == "all" {
		// "all" is pinned to the paper's evaluation set: its output is
		// the byte-identity baseline the perf PRs diff against, so new
		// experiments (sweep) run standalone instead of growing it.
		for _, name := range []string{"fig1", "fig4", "fig5", "fig6", "fig7", "trajectory", "ablationA", "ablationB", "ablationC", "ablationD", "ablationE"} {
			if err := one(name); err != nil {
				return err
			}
		}
		return nil
	}
	return one(exp)
}
