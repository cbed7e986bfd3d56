package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the peak resident set size (VmHWM) of a process from
// /proc, in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// endToEnd assembles the end-to-end metric set every workload reports.
// See README.md for each workload's definition of an operation and of
// its p50 and p90.
func endToEnd(setup []time.Duration, rssMB, opsPerS, p50, p90 float64) map[string]metric {
	setupS := make([]float64, len(setup))
	for i, d := range setup {
		setupS[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":     {median(setupS), "s"},
		"peak_rss_mb": {rssMB, "MB"},
		"ops_per_s":   {opsPerS, "1/s"},
		"op_p50_ms":   {p50, "ms"},
		"op_p90_ms":   {p90, "ms"},
	}
}

// cpuTimes reads the aggregate cpu line of /proc/stat: total and steal
// jiffies. Steal is time the hypervisor ran someone else on our vCPUs;
// runs report its share on stderr so noisy-neighbour runs can be told
// apart from slow code.
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter measures the steal share of CPU time since it was started.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s := cpuTimes()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := cpuTimes()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}
