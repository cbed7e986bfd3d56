// Command samrperf is the repository's end-to-end benchmark. It drives
// three workloads, each in its own process (the partition, sim and
// step caches are process globals, so a shared process would leak warm
// state from one workload into the next):
//
//	regrid-stream  cold partition misses through a real samrd over loopback
//	replay-hot     cache and tier hits, selects and warm simulates; closed, then open loop
//	paper-eval     the paper's full evaluation, in process and cold
//
// Every run checks the program's outputs and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 the run instead replays a seeded sample
// of all three workloads through the layers' public functions, records
// one span per call, and reports the per-layer metrics derived from the
// spans. See README.md for what each metric means on each workload.
//
// Run it through run.sh, which builds it and samrd from the checkout:
//
//	bash benchmark/run.sh --workload replay-hot --seed 3 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env carries what every workload needs: the samrd binary, a private
// scratch directory inside the checkout, and the run parameters.
type env struct {
	samrd   string
	dir     string // per-run scratch directory, removed on exit
	work    string // build directory; span files are kept here
	seed    int64
	seconds time.Duration
	// problems collects correctness failures that are not per-request
	// (cache-regime assertions, self-checks); any entry makes the run
	// incorrect.
	problems []string
}

func (e *env) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.problems = append(e.problems, msg)
	logf("CHECK FAILED: %s", msg)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "samrperf: "+format+"\n", args...)
}

var workloads = map[string]func(context.Context, *env) (*result, error){
	"regrid-stream": runRegridStream,
	"replay-hot":    runReplayHot,
	"paper-eval":    runPaperEval,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "regrid-stream, replay-hot or paper-eval")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Int("seconds", 10, "length of the measured phase in seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
		samrd    = flag.String("samrd", "", "path of the samrd binary to drive")
		work     = flag.String("work", ".bench_build", "directory for run scratch files and span output")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || *samrd == "" || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: samrperf -samrd <binary> -workload regrid-stream|replay-hot|paper-eval -seed N -seconds N -trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir, err := os.MkdirTemp(*work, "run-"+strconv.Itoa(os.Getpid())+"-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{samrd: *samrd, dir: dir, work: *work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, e, *workload)
	} else {
		res, err = wl(ctx, e)
	}
	if err != nil {
		logf("%s: %v", *workload, err)
		return 1
	}
	if len(e.problems) > 0 {
		res.Correct = false
	}
	if res.Attempted < 1 {
		logf("%s: no operation attempted", *workload)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// spanPath is where a traced run leaves its spans.
func (e *env) spanPath(workload string) string {
	return filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.json", workload, e.seed))
}
