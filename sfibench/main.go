// Command sfibench is the SFI benchmark: it runs one named campaign
// workload against the repository's Go packages for a fixed wall time,
// checks every report it gets back, and prints the workload's end-to-end
// metrics (or, with -trace 1, its per-layer metrics) as one JSON object on
// the last line of standard output.
//
//	sfibench --workload p6lite-uniform --seed 1 --seconds 25 --trace 0
//
// Run it through run.sh from the repository root, which builds it first.
// The workloads, metrics and layers are described in README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. Failed operations are carried by the result's attempted
// and failed counts (their ratio is the failed fraction).
var endToEnd = []metricDef{
	{"inj_per_s", "inj/s"},
	{"time_to_report_s", "s"},
	{"injections_to_margin", "count"},
	{"setup_s", "s"},
	{"submit_to_report_p50_ms", "ms"},
	{"submit_to_report_p90_ms", "ms"},
	{"campaigns_per_s", "1/s"},
	{"peak_mem_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer that does not run on a
// workload reports 0 for its metrics there.
var perLayer = []metricDef{
	{"p6lite.build_ms", "ms"},
	{"p6lite.clone_ms", "ms"},
	{"p6lite.restore_ns", "ns"},
	{"p6lite.delay_step_ns", "ns"},
	{"p6lite.inject_ns", "ns"},
	{"p6lite.run_ns_per_cycle", "ns"},
	{"p6lite.barrier_check_ns", "ns"},
	{"p6lite.verdict_ns", "ns"},
	{"p6lite.cycles_per_inj", "count"},
	{"p6lite.barriers_per_inj", "count"},
	{"p6lite.busy_frac", "ratio"},
	{"awan.build_ms", "ms"},
	{"awan.clone_ms", "ms"},
	{"awan.pass_ms", "ms"},
	{"awan.pass_restore_us", "us"},
	{"awan.pass_run_ns_per_cycle", "ns"},
	{"awan.cycles_per_pass", "count"},
	{"awan.lane_occupancy", "ratio"},
	{"awan.quiesced_frac", "ratio"},
	{"awan.busy_frac", "ratio"},
	{"core.runner_setup_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.overhead_frac", "ratio"},
	{"core.ns_per_inj_outside_engine", "ns"},
	{"stats.strata", "count"},
	{"stats.strata_exhausted", "count"},
	{"stats.epochs", "count"},
	{"stats.allocate_us", "us"},
	{"stats.convergence_us", "us"},
	{"dist.shards", "count"},
	{"dist.lease_grants", "count"},
	{"dist.requeues", "count"},
	{"dist.shard_overhead_ms", "ms"},
	{"dist.journal_bytes_per_shard", "bytes"},
	{"store.image_hit_ratio", "ratio"},
	{"store.boot_hit_ms", "ms"},
	{"store.boot_miss_ms", "ms"},
	{"store.dedup_frac", "ratio"},
	{"store.report_get_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.status_get_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

// opts are one run's settings.
type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	copies   int    // concurrent model copies / client connections
	work     string // scratch directory inside the checkout
}

// outcome is what a workload hands back: metric values by name, the
// operation counts, and the correctness verdict.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
}

// fail records an output mismatch; any makes the run incorrect.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it;
// README.md says what each runs and why.
var workloads = map[string]func(o opts, out *outcome) error{
	"p6lite-uniform": runLocal,
	"p6lite-neyman":  runLocal,
	"awan-lanes":     runLocal,
	"service":        runService,
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "measured wall time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "sfibench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work"))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfibench:", err)
		return 1
	}
	o := opts{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		copies:   min(2, runtime.NumCPU()),
		work:     work,
	}
	out := &outcome{metrics: make(map[string]float64)}
	fmt.Printf("workload %s, seed %d, %v measured, %d copies, trace %v\n",
		o.workload, o.seed, o.seconds, o.copies, o.trace)
	if err := run(o, out); err != nil {
		fmt.Fprintln(os.Stderr, "sfibench:", err)
		return 1
	}
	if o.trace {
		if err := spans.write(filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "sfibench: writing spans:", err)
			return 1
		}
		spans.printSelfTimes()
	}
	return report(o, out)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the metric table and the final JSON line.
func report(o opts, out *outcome) int {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !o.trace {
			out.fail("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.fail("metric %s is %v", d.name, v)
			v = 0
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %16s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	if out.attempted > 0 {
		fmt.Printf("  %-32s %16s ratio (%d of %d operations)\n", "failed_frac",
			strconv.FormatFloat(float64(out.failed)/float64(out.attempted), 'g', 8, 64), out.failed, out.attempted)
	} else {
		out.fail("no operation was attempted")
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "sfibench: CHECK FAILED:", p)
	}
	correct := len(out.problems) == 0
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	err := enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(out.attempted, 1), out.failed, ms})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfibench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakMemMB is the process's peak resident set size (VmHWM), falling
// back to the Go runtime's total reservation where /proc is unavailable.
func peakMemMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
