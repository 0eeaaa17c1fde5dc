// Command e2ebench is pipetherm's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output it produces, and
// prints one JSON result line:
//
//	e2ebench --workload fig6_matrix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run carries no instrumentation and reports the
// end-to-end metrics; with --trace 1 it reports the per-layer metrics
// from separate untraced, traced and profiled passes. See README.md for
// the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned output digests were recorded at.
const defaultSeed = 1

// options is what every workload receives.
type options struct {
	seed     uint64
	duration time.Duration
	trace    bool
	// par is the load shape: fig6 and multicore Parallelism, daemon
	// workers and service clients all equal it.
	par     int
	daemon  string // path to the pipethermd binary
	scratch string // directory for temp dirs and span dumps
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// tally counts operations and the ones that failed a check. Safe for
// concurrent use.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// check counts one operation; a non-nil err marks it failed and is
// logged to stderr.
func (t *tally) check(err error) bool {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		fmt.Fprintf(os.Stderr, "e2ebench: FAILED: %v\n", err)
		return false
	}
	return true
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type workload func(o options, t *tally) (metrics, error)

// endToEnd and perLayer are the metrics BENCHMARK.json lists, with their
// units. Every workload reports all of them: the end-to-end ones with
// --trace 0, the per-layer ones with --trace 1. A metric a workload
// measures beyond these goes on the detail line.
var (
	endToEnd = map[string]string{
		"setup_s":        "s",
		"peak_rss_mb":    "MiB",
		"ops_per_s":      "1/s",
		"sim_mips":       "Minst/s",
		"request_p50_ms": "ms",
	}
	perLayer = map[string]string{
		"sim.committed_minst":   "Minst",
		"sim.stall_cycles":      "cycles",
		"core.dtm_actions":      "count",
		"go.gc_cycles":          "count",
		"go.alloc_kb_per_op":    "KiB/op",
		"tracing.overhead_frac": "frac",
		"cpu.warmup_cum":        "frac",
		"cpu.cycle_cum":         "frac",
	}
)

func init() {
	for _, b := range append(cpuBuckets, "other") {
		perLayer[cpuMetric(b)] = "frac"
	}
}

// split separates the manifest's metrics from the rest of what a
// workload measured. A manifest metric that is missing or in another
// unit is an error of the benchmark's own.
func split(m metrics, want map[string]string) (report, detail metrics, err error) {
	report, detail = metrics{}, metrics{}
	for name, v := range m {
		if _, ok := want[name]; ok {
			report[name] = v
		} else {
			detail[name] = v
		}
	}
	for name, unit := range want {
		v, ok := report[name]
		switch {
		case !ok:
			return nil, nil, fmt.Errorf("metric %s not measured", name)
		case v.Unit != unit:
			return nil, nil, fmt.Errorf("metric %s in %s, want %s", name, v.Unit, unit)
		}
	}
	return report, detail, nil
}

var workloads = map[string]workload{
	"fig6_matrix":     runFig6,
	"multicore_sched": runMulticore,
	"service_mixed":   runService,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	nproc := runtime.NumCPU()
	var (
		name    = fs.String("workload", "", "fig6_matrix | multicore_sched | service_mixed")
		seed    = fs.Uint64("seed", defaultSeed, "workload seed")
		seconds = fs.Int("seconds", 30, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1: report per-layer metrics from traced and profiled passes")
		par     = fs.Int("parallelism", nproc, "workers, clients and Parallelism (at most nproc)")
		daemon  = fs.String("daemon", ".bench_build/pipethermd", "pipethermd binary")
		scratch = fs.String("scratch", ".bench_build", "scratch directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	case *par < 1 || *par > nproc:
		fmt.Fprintf(os.Stderr, "e2ebench: parallelism %d outside [1, nproc=%d]\n", *par, nproc)
		return 2
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "e2ebench: seconds must be positive\n")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "e2ebench: trace must be 0 or 1\n")
		return 2
	}
	o := options{
		seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		par: *par, daemon: *daemon, scratch: *scratch,
	}
	var t tally
	steal0 := stealTicks()
	m, err := w(o, &t)
	stamp := stampFor(*name, o)
	stamp["steal_frac"] = stealFrac(steal0, stealTicks())
	line, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Println(string(line))
	var report, detail metrics
	if err == nil {
		want := endToEnd
		if o.trace {
			want = perLayer
		}
		report, detail, err = split(m, want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	line, _ = json.Marshal(map[string]any{"detail": detail})
	fmt.Println(string(line))
	res := result{
		Correct:   t.failed.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   report,
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

// stampFor records the settings and host every result depends on.
func stampFor(name string, o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":    name,
		"seed":        o.seed,
		"seconds":     o.duration.Seconds(),
		"trace":       o.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"parallelism": o.par,
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"commit":      commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks reads the host's aggregate CPU ticks from /proc/stat: all
// of them, and those stolen by the hypervisor. On a shared host stolen
// time slows every wall-clock metric, so each record carries it.
func stealTicks() [2]uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var total, steal uint64
	for i, f := range strings.Fields(line)[1:] {
		if i == 8 { // guest time is already counted in user
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return [2]uint64{total, steal}
}

// stealFrac is the share of CPU time stolen between two readings.
func stealFrac(a, b [2]uint64) float64 {
	if b[0] <= a[0] {
		return 0
	}
	return float64(b[1]-a[1]) / float64(b[0]-a[0])
}

// peakRSSMiB is this process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var errDigest = errors.New("output digest differs from the pinned one")
