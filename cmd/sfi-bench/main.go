// Command sfi-bench runs the repository's key performance benchmarks,
// parses their output and emits a machine-readable JSON record so the perf
// trajectory is tracked across PRs instead of only as prose in
// EXPERIMENTS.md:
//
//	sfi-bench -out BENCH_pr2.json
//
// With -guard it is the CI overhead gate for the observability layer: it
// measures the injection hot path with observability off (the no-op
// default) and fully on (metrics + trace sink) in interleaved rounds,
// fails if the no-op path regressed more than 5% against the recorded
// baseline, and fails if the metrics-on overhead exceeds 5%. It also runs
// a distributed-loopback paired measurement — the same campaign through a
// loopback coordinator with fleet observability off and on — and fails if
// the heartbeat-piggyback/trace-attach path costs more than 5% wall time.
// Since PR 6 it also pairs a scalar (BatchLanes=1) against a bit-parallel
// (64-lane) awan campaign and fails if the lane speedup falls below 8x.
// Since PR 7 it pairs a fixed-N campaign against the same campaign under
// the adaptive convergence stop (same seed, same margin) and fails unless
// the adaptive run converges with strictly fewer injections — the
// injections-saved claim is measured, not asserted. Since PR 8 it boots an
// in-process campaign server, submits two campaigns sharing a checkpoint
// image, and fails unless the warm-cache campaign boots at least 5x
// faster than the cold one. Since PR 9 it pairs the same bit-parallel awan
// campaign with campaign tracing off and on and fails if the span path
// (per-batch spans, ring, critical-path doc) costs more than 5% wall time.
// Since PR 10 it pairs two campaigns chasing the same stoppable target —
// every sampling stratum's interval within the margin or its census
// exhausted — one sampling uniformly, one under stratified Neyman
// allocation, and fails unless the stratified campaign reaches coverage
// with strictly fewer injections:
//
//	sfi-bench -guard -baseline BENCH_baseline.json
//
// A missing baseline file is recorded (first run on a new machine) rather
// than failed, and -record re-records it in place.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sfi"
	"sfi/internal/core"
	"sfi/internal/dist"
	"sfi/internal/obs"
	"sfi/internal/server"
	"sfi/internal/stats"
)

const tolerance = 0.05 // 5% regression / overhead budget

// laneSpeedupFloor is the PR 6 acceptance bar: one 64-lane model pass
// retires 63 injections, so even with divergence-tracking overhead the
// batched awan path must beat the scalar path by at least this factor.
const laneSpeedupFloor = 8.0

// cacheHitSpeedupFloor is the PR 8 acceptance bar: a campaign whose
// checkpoint image is already warm in the server's cache must reach its
// first injection (prototype acquisition: clone vs full build) at least
// this much faster than the cold campaign that built the image.
const cacheHitSpeedupFloor = 5.0

func main() {
	var (
		out      = flag.String("out", "", "write the full benchmark record to this JSON file")
		guard    = flag.Bool("guard", false, "run the observability overhead gate (exit 1 on >5% regression)")
		baseline = flag.String("baseline", "BENCH_baseline.json", "recorded BenchmarkInjection baseline for -guard")
		record   = flag.Bool("record", false, "re-record the -baseline file from this run")
		count    = flag.Int("count", 10, "paired measurement rounds (best-of is used)")
	)
	flag.Parse()

	if !*guard && *out == "" && !*record {
		fmt.Fprintln(os.Stderr, "sfi-bench: nothing to do (want -out, -guard or -record)")
		os.Exit(2)
	}
	if err := run(*out, *guard, *baseline, *record, *count); err != nil {
		fmt.Fprintln(os.Stderr, "sfi-bench:", err)
		os.Exit(1)
	}
}

// sample is one parsed benchmark result line.
type sample struct {
	nsPerOp float64
	metrics map[string]float64 // extra b.ReportMetric pairs, e.g. "inj/s"
}

// record is the BENCH_pr*.json wire format.
type benchRecord struct {
	Date string `json:"date"`
	Go   string `json:"go"`
	Host string `json:"host"`

	InjectionNsOp         float64 `json:"injection_ns_op"`
	InjectionsPerSec      float64 `json:"injections_per_sec"`
	InjectionObservedNsOp float64 `json:"injection_observed_ns_op"`
	ObsOverheadPct        float64 `json:"observability_overhead_pct"`

	RestoreDirtyNsOp float64 `json:"restore_dirty_ns_op"`
	RestoreFullNsOp  float64 `json:"restore_full_ns_op"`

	CampaignInjPerSec struct {
		WarmClones float64 `json:"warm_clones"`
	} `json:"campaign_inj_per_sec"`

	DistLoopback struct {
		ObsOffMs    float64 `json:"obs_off_ms"`
		ObsOnMs     float64 `json:"obs_on_ms"`
		OverheadPct float64 `json:"overhead_pct"`
	} `json:"dist_loopback"`

	Tracing struct {
		OffMs       float64 `json:"off_ms"`
		OnMs        float64 `json:"on_ms"`
		OverheadPct float64 `json:"overhead_pct"`
	} `json:"tracing"`

	AwanLanes struct {
		ScalarInjPerSec float64 `json:"scalar_inj_per_sec"`
		LanesInjPerSec  float64 `json:"lanes_inj_per_sec"`
		LaneSpeedup     float64 `json:"lane_speedup"`
	} `json:"awan_lanes"`

	Adaptive struct {
		FixedFlips         int     `json:"fixed_flips"`
		AdaptiveFlips      int     `json:"adaptive_flips"`
		TargetMarginPct    float64 `json:"target_margin_pct"`
		InjectionsSavedPct float64 `json:"injections_saved_pct"`
	} `json:"adaptive"`

	Stratified struct {
		UniformFlips       int     `json:"uniform_flips"`
		StratifiedFlips    int     `json:"stratified_flips"`
		TargetMarginPct    float64 `json:"target_margin_pct"`
		InjectionsSavedPct float64 `json:"injections_saved_pct"`
	} `json:"stratified"`

	CacheHit struct {
		ColdSubmitToReportMs float64 `json:"cold_submit_to_report_ms"`
		WarmSubmitToReportMs float64 `json:"warm_submit_to_report_ms"`
		ColdBootMs           float64 `json:"cold_boot_ms"`
		WarmBootMs           float64 `json:"warm_boot_ms"`
		CacheHitSpeedup      float64 `json:"cache_hit_speedup"`
	} `json:"cache_hit"`
}

type baselineRecord struct {
	InjectionNsOp float64 `json:"injection_ns_op"`
	Recorded      string  `json:"recorded"`
	Go            string  `json:"go"`
}

func run(out string, guard bool, baselinePath string, record bool, count int) error {
	fmt.Fprintln(os.Stderr, "sfi-bench: measuring injection throughput (observability off/on)...")
	offNs, onNs, err := measureInjectionPaired(count)
	if err != nil {
		return err
	}
	overhead := (onNs - offNs) / offNs
	fmt.Fprintf(os.Stderr, "sfi-bench: injection %.0f ns/op off, %.0f ns/op on (overhead %+.2f%%)\n",
		offNs, onNs, 100*overhead)

	fmt.Fprintln(os.Stderr, "sfi-bench: measuring distributed loopback (fleet observability off/on)...")
	distOff, distOn, err := measureDistPaired(3)
	if err != nil {
		return err
	}
	distOverhead := (distOn - distOff) / distOff
	fmt.Fprintf(os.Stderr, "sfi-bench: dist loopback %.0f ms off, %.0f ms on (overhead %+.2f%%)\n",
		1000*distOff, 1000*distOn, 100*distOverhead)

	fmt.Fprintln(os.Stderr, "sfi-bench: measuring campaign tracing (spans off/on)...")
	traceOff, traceOn, err := measureTracingPaired(3)
	if err != nil {
		return err
	}
	traceOverhead := (traceOn - traceOff) / traceOff
	fmt.Fprintf(os.Stderr, "sfi-bench: tracing %.0f ms off, %.0f ms on (overhead %+.2f%%)\n",
		1000*traceOff, 1000*traceOn, 100*traceOverhead)

	fmt.Fprintln(os.Stderr, "sfi-bench: measuring awan campaign (scalar vs 64-lane batch)...")
	scalarInjS, lanesInjS, err := measureAwanLanesPaired(3)
	if err != nil {
		return err
	}
	laneSpeedup := lanesInjS / scalarInjS
	fmt.Fprintf(os.Stderr, "sfi-bench: awan %.0f inj/s scalar, %.0f inj/s lanes (%.1fx)\n",
		scalarInjS, lanesInjS, laneSpeedup)

	fmt.Fprintln(os.Stderr, "sfi-bench: measuring adaptive early-stop (fixed-N vs converge-at-margin)...")
	fixedFlips, adaptiveFlips, marginPct, err := measureAdaptive()
	if err != nil {
		return err
	}
	savedPct := 100 * float64(fixedFlips-adaptiveFlips) / float64(fixedFlips)
	fmt.Fprintf(os.Stderr, "sfi-bench: adaptive stop at %d of %d injections (%.1f%% saved at a %.1f-point margin)\n",
		adaptiveFlips, fixedFlips, savedPct, marginPct)

	fmt.Fprintln(os.Stderr, "sfi-bench: measuring stratum coverage (uniform vs Neyman-allocated sampling)...")
	uniformFlips, stratifiedFlips, stratMarginPct, err := measureStratified()
	if err != nil {
		return err
	}
	stratSavedPct := 100 * float64(uniformFlips-stratifiedFlips) / float64(uniformFlips)
	fmt.Fprintf(os.Stderr, "sfi-bench: stratified coverage at %d vs uniform %d injections (%.1f%% saved at a %.1f-point margin)\n",
		stratifiedFlips, uniformFlips, stratSavedPct, stratMarginPct)

	fmt.Fprintln(os.Stderr, "sfi-bench: measuring campaign-server checkpoint cache (cold vs warm image)...")
	cache, err := measureCacheHit()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sfi-bench: boot %.1f ms cold, %.2f ms warm (%.1fx); submit-to-report %.0f ms cold, %.0f ms warm\n",
		cache.coldBootMs, cache.warmBootMs, cache.speedup(), cache.coldMs, cache.warmMs)

	if guard || record {
		gerr := runGuard(baselinePath, record, offNs, overhead, distOverhead, traceOverhead, laneSpeedup, cache.speedup())
		if gerr != nil && !record {
			// One fresh measurement before failing: a transient load burst
			// inflates both measurements and passes the retry, while a real
			// regression fails twice.
			fmt.Fprintln(os.Stderr, "sfi-bench: guard failed, re-measuring once to rule out transient load...")
			off2, on2, merr := measureInjectionPaired(count)
			if merr != nil {
				return merr
			}
			dOff2, dOn2, merr := measureDistPaired(3)
			if merr != nil {
				return merr
			}
			tOff2, tOn2, merr := measureTracingPaired(3)
			if merr != nil {
				return merr
			}
			sc2, ln2, merr := measureAwanLanesPaired(3)
			if merr != nil {
				return merr
			}
			cache2, merr := measureCacheHit()
			if merr != nil {
				return merr
			}
			offNs, onNs = min(offNs, off2), min(onNs, on2)
			distOff, distOn = min(distOff, dOff2), min(distOn, dOn2)
			traceOff, traceOn = min(traceOff, tOff2), min(traceOn, tOn2)
			scalarInjS, lanesInjS = max(scalarInjS, sc2), max(lanesInjS, ln2)
			if cache2.speedup() > cache.speedup() {
				cache = cache2
			}
			overhead = (onNs - offNs) / offNs
			distOverhead = (distOn - distOff) / distOff
			traceOverhead = (traceOn - traceOff) / traceOff
			laneSpeedup = lanesInjS / scalarInjS
			gerr = runGuard(baselinePath, false, offNs, overhead, distOverhead, traceOverhead, laneSpeedup, cache.speedup())
		}
		if gerr != nil {
			return gerr
		}
	}
	if out == "" {
		return nil
	}

	fmt.Fprintln(os.Stderr, "sfi-bench: measuring checkpoint restore...")
	restoreOut, err := goBench("./internal/engine/p6lite", "^BenchmarkRestoreCheckpoint$", "300x", 1)
	if err != nil {
		return err
	}
	restores := parseBench(restoreOut)
	dirty, err := best(restores, "BenchmarkRestoreCheckpoint/dirty")
	if err != nil {
		return err
	}
	full, err := best(restores, "BenchmarkRestoreCheckpoint/full")
	if err != nil {
		return err
	}

	fmt.Fprintln(os.Stderr, "sfi-bench: measuring campaign throughput...")
	campOut, err := goBench(".", "^BenchmarkCampaignThroughput$", "1x", 1)
	if err != nil {
		return err
	}
	camps := parseBench(campOut)
	warm, err := best(camps, "BenchmarkCampaignThroughput/warm-clones")
	if err != nil {
		return err
	}

	rec := benchRecord{
		Date:                  time.Now().UTC().Format(time.RFC3339),
		Go:                    runtime.Version(),
		Host:                  fmt.Sprintf("%s/%s x%d", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		InjectionNsOp:         offNs,
		InjectionsPerSec:      1e9 / offNs,
		InjectionObservedNsOp: onNs,
		ObsOverheadPct:        100 * overhead,
		RestoreDirtyNsOp:      dirty.nsPerOp,
		RestoreFullNsOp:       full.nsPerOp,
	}
	rec.CampaignInjPerSec.WarmClones = warm.metrics["inj/s"]
	rec.DistLoopback.ObsOffMs = 1000 * distOff
	rec.DistLoopback.ObsOnMs = 1000 * distOn
	rec.DistLoopback.OverheadPct = 100 * distOverhead
	rec.Tracing.OffMs = 1000 * traceOff
	rec.Tracing.OnMs = 1000 * traceOn
	rec.Tracing.OverheadPct = 100 * traceOverhead
	rec.AwanLanes.ScalarInjPerSec = scalarInjS
	rec.AwanLanes.LanesInjPerSec = lanesInjS
	rec.AwanLanes.LaneSpeedup = laneSpeedup
	rec.Adaptive.FixedFlips = fixedFlips
	rec.Adaptive.AdaptiveFlips = adaptiveFlips
	rec.Adaptive.TargetMarginPct = marginPct
	rec.Adaptive.InjectionsSavedPct = savedPct
	rec.Stratified.UniformFlips = uniformFlips
	rec.Stratified.StratifiedFlips = stratifiedFlips
	rec.Stratified.TargetMarginPct = stratMarginPct
	rec.Stratified.InjectionsSavedPct = stratSavedPct
	rec.CacheHit.ColdSubmitToReportMs = cache.coldMs
	rec.CacheHit.WarmSubmitToReportMs = cache.warmMs
	rec.CacheHit.ColdBootMs = cache.coldBootMs
	rec.CacheHit.WarmBootMs = cache.warmBootMs
	rec.CacheHit.CacheHitSpeedup = cache.speedup()

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sfi-bench: wrote %s\n", out)
	return nil
}

// runGuard enforces the four 5% budgets — no-op-observability regression
// against the recorded baseline, metrics-on overhead against the in-run
// metrics-off measurement, fleet-observability (heartbeat piggyback +
// trace attach) overhead on the distributed loopback path, campaign-span
// tracing overhead on the batch path — plus the 8x floor on the
// bit-parallel awan lane speedup and the 5x floor on the campaign
// server's warm checkpoint-cache boot speedup.
func runGuard(path string, record bool, offNsOp, overhead, distOverhead, traceOverhead, laneSpeedup, cacheSpeedup float64) error {
	if overhead > tolerance {
		return fmt.Errorf("observability overhead %.2f%% exceeds the %.0f%% budget",
			100*overhead, 100*tolerance)
	}
	if distOverhead > tolerance {
		return fmt.Errorf("distributed fleet-observability overhead %.2f%% exceeds the %.0f%% budget",
			100*distOverhead, 100*tolerance)
	}
	if traceOverhead > tolerance {
		return fmt.Errorf("campaign tracing overhead %.2f%% exceeds the %.0f%% budget",
			100*traceOverhead, 100*tolerance)
	}
	if laneSpeedup < laneSpeedupFloor {
		return fmt.Errorf("awan lane speedup %.1fx is below the %.0fx floor",
			laneSpeedup, laneSpeedupFloor)
	}
	if cacheSpeedup < cacheHitSpeedupFloor {
		return fmt.Errorf("warm checkpoint-cache boot speedup %.1fx is below the %.0fx floor",
			cacheSpeedup, cacheHitSpeedupFloor)
	}
	data, err := os.ReadFile(path)
	switch {
	case record || os.IsNotExist(err):
		base := baselineRecord{
			InjectionNsOp: offNsOp,
			Recorded:      time.Now().UTC().Format(time.RFC3339),
			Go:            runtime.Version(),
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sfi-bench: recorded baseline %.0f ns/op to %s\n", offNsOp, path)
		return nil
	case err != nil:
		return err
	}
	var base baselineRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if base.InjectionNsOp <= 0 {
		return fmt.Errorf("baseline %s has no injection_ns_op", path)
	}
	delta := (offNsOp - base.InjectionNsOp) / base.InjectionNsOp
	fmt.Fprintf(os.Stderr, "sfi-bench: no-op path %.0f ns/op vs baseline %.0f (%+.2f%%)\n",
		offNsOp, base.InjectionNsOp, 100*delta)
	if delta > tolerance {
		return fmt.Errorf("BenchmarkInjection with no-op observability regressed %.2f%% "+
			"vs the recorded baseline (budget %.0f%%; re-record with sfi-bench -record "+
			"if the baseline is stale)", 100*delta, 100*tolerance)
	}
	fmt.Fprintln(os.Stderr, "sfi-bench: overhead guard passed")
	return nil
}

// measureInjectionPaired times the single-injection hot path with
// observability off and on. The two sides alternate in rounds on the SAME
// runner over the SAME bit sequence, and the minimum per-injection time
// across rounds is kept for each side. Interleaving means a load burst on
// the host degrades both sides of a round equally instead of poisoning one
// — running the off and on benchmarks back-to-back (as `go test -count`
// does) was observed to report ±25% phantom overhead on a busy box.
// BenchmarkInjection/BenchmarkInjectionObserved remain the `go test`-native
// view of the same comparison.
func measureInjectionPaired(rounds int) (offNs, onNs float64, err error) {
	cfg := sfi.DefaultRunnerConfig()
	cfg.AVP.Testcases = 8 // benchRunner() scale: small AVP, full model
	cfg.AVP.BodyOps = 24
	r, err := sfi.NewRunner(cfg)
	if err != nil {
		return 0, 0, err
	}
	names := make([]string, len(sfi.Outcomes)+1)
	for _, o := range sfi.Outcomes {
		names[int(o)] = o.String()
	}
	m := obs.New(names)
	sink := obs.NewTraceSink(io.Discard, obs.TraceOptions{})
	total := r.DB().TotalBits()

	const perRound = 100
	bit := func(i int) int { return (i * 7919) % total }
	phase := func(start int) time.Duration {
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			r.RunInjection(bit(start + i))
		}
		return time.Since(t0)
	}
	for i := 0; i < perRound; i++ { // warm caches and the dirty-restore path
		r.RunInjection(bit(i))
	}
	offBest, onBest := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < rounds; round++ {
		start := round * perRound
		r.SetObs(nil, nil)
		if d := phase(start); d < offBest {
			offBest = d
		}
		r.SetObs(m, sink)
		if d := phase(start); d < onBest {
			onBest = d
		}
	}
	return float64(offBest.Nanoseconds()) / perRound,
		float64(onBest.Nanoseconds()) / perRound, nil
}

// runDistLoopback executes one small distributed campaign — an in-process
// coordinator on a loopback listener, two real RunWorker loops over the
// real HTTP protocol — and returns its wall time. With obsOn, workers run
// the full fleet-observability path (shard metrics, heartbeat snapshot
// deltas, trace attachment); otherwise the NoObs path, which is PR 3's
// behavior.
func runDistLoopback(obsOn bool) (time.Duration, error) {
	rc := sfi.DefaultRunnerConfig()
	rc.AVP.Testcases = 8
	rc.AVP.BodyOps = 24
	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Campaign: dist.CampaignSpec{
			Runner:       rc,
			Seed:         7,
			Flips:        480,
			ShardWorkers: 1,
		},
		ShardSize: 60,
		// Short TTL so heartbeats (at TTL/3) actually fire mid-shard and
		// the piggyback path is exercised, not idle.
		LeaseTTL: 300 * time.Millisecond,
	})
	if err != nil {
		return 0, err
	}
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	start := time.Now()
	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			workerErr <- dist.RunWorker(ctx, dist.WorkerConfig{
				Coordinator: "http://" + ln.Addr().String(),
				ID:          fmt.Sprintf("bench-%d", i),
				PollEvery:   20 * time.Millisecond,
				NoObs:       !obsOn,
			})
		}(i)
	}
	if _, err := coord.Wait(ctx); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	for i := 0; i < 2; i++ {
		if werr := <-workerErr; werr != nil {
			return 0, werr
		}
	}
	return elapsed, nil
}

// measureDistPaired times the distributed loopback campaign with fleet
// observability off and on in interleaved rounds (same rationale as
// measureInjectionPaired), keeping the best wall time of each side. The
// measured delta is the cost of shard metrics collection, heartbeat delta
// piggybacking and completion trace attachment.
func measureDistPaired(rounds int) (offSec, onSec float64, err error) {
	offBest, onBest := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < rounds; round++ {
		d, err := runDistLoopback(false)
		if err != nil {
			return 0, 0, err
		}
		if d < offBest {
			offBest = d
		}
		d, err = runDistLoopback(true)
		if err != nil {
			return 0, 0, err
		}
		if d < onBest {
			onBest = d
		}
	}
	return offBest.Seconds(), onBest.Seconds(), nil
}

// measureTracingPaired times the same bit-parallel awan campaign with
// campaign tracing off (no tracer: every span site is a nil no-op) and on
// (a live tracer minting per-batch engine spans into the bounded ring,
// plus the TraceDoc build at the end) in interleaved rounds, keeping the
// best wall time of each side. The batch path is the worst case for span
// overhead: one span per model pass is the highest span rate any layer
// produces. Each round cross-checks that both sides classified
// identically — tracing must never perturb campaign results.
func measureTracingPaired(rounds int) (offSec, onSec float64, err error) {
	config := func() sfi.CampaignConfig {
		c := sfi.DefaultCampaignConfig()
		c.Runner.Backend = "awan"
		c.Runner.Awan.Width = 8
		c.Runner.Awan.Lanes = 16
		c.Seed = 9
		c.Flips = 384
		c.Workers = 1
		return c
	}
	side := func(traced bool) (time.Duration, *sfi.Report, error) {
		cfg := config()
		var tracer *sfi.Tracer
		if traced {
			tracer = sfi.NewTracer(cfg.Seed)
			cfg.Obs.Tracer = tracer
		}
		t0 := time.Now()
		rep, err := sfi.RunCampaign(cfg)
		if err != nil {
			return 0, nil, err
		}
		elapsed := time.Since(t0)
		if traced {
			if doc := tracer.Doc(); doc.Root == nil || doc.Spans == 0 {
				return 0, nil, fmt.Errorf("traced campaign recorded no span tree")
			}
		}
		return elapsed, rep, nil
	}
	offBest, onBest := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < rounds; round++ {
		d, offRep, err := side(false)
		if err != nil {
			return 0, 0, err
		}
		offBest = min(offBest, d)
		d, onRep, err := side(true)
		if err != nil {
			return 0, 0, err
		}
		onBest = min(onBest, d)
		if !reflect.DeepEqual(offRep.Counts, onRep.Counts) {
			return 0, 0, fmt.Errorf("tracing perturbed campaign results: "+
				"untraced counts %v, traced counts %v", offRep.Counts, onRep.Counts)
		}
	}
	return offBest.Seconds(), onBest.Seconds(), nil
}

// measureAwanLanesPaired times the same gate-level campaign through the
// scalar path (BatchLanes=1) and the bit-parallel 64-lane batch path in
// interleaved rounds, keeping the best inj/s of each side. Both sides use
// the same seed, sample and worker count, so the ratio isolates the lane
// packing itself; each round also cross-checks that the two paths produced
// identical outcome totals, making the speedup claim about equivalent work.
func measureAwanLanesPaired(rounds int) (scalarInjS, lanesInjS float64, err error) {
	config := func(batchLanes int) sfi.CampaignConfig {
		c := sfi.DefaultCampaignConfig()
		c.Runner.Backend = "awan"
		c.Runner.Awan.Width = 8
		c.Runner.Awan.Lanes = 16
		c.Runner.BatchLanes = batchLanes
		c.Seed = 9
		c.Flips = 384
		c.Workers = 1
		return c
	}
	side := func(batchLanes int) (float64, *sfi.Report, error) {
		cfg := config(batchLanes)
		t0 := time.Now()
		rep, err := sfi.RunCampaign(cfg)
		if err != nil {
			return 0, nil, err
		}
		return float64(cfg.Flips) / time.Since(t0).Seconds(), rep, nil
	}
	for round := 0; round < rounds; round++ {
		sInjS, sRep, err := side(1)
		if err != nil {
			return 0, 0, err
		}
		lInjS, lRep, err := side(0)
		if err != nil {
			return 0, 0, err
		}
		if !reflect.DeepEqual(sRep.Counts, lRep.Counts) {
			return 0, 0, fmt.Errorf("awan lane measurement is not comparing equivalent work: "+
				"scalar counts %v, lane counts %v", sRep.Counts, lRep.Counts)
		}
		scalarInjS = max(scalarInjS, sInjS)
		lanesInjS = max(lanesInjS, lInjS)
	}
	return scalarInjS, lanesInjS, nil
}

// measureAdaptive runs the same campaign twice — once with the classic
// fixed flip budget, once with the adaptive convergence stop at a 5-point
// margin — and returns both injection counts. It fails (rather than
// recording a number) if the fixed run did not exhaust its budget, if the
// adaptive run did not converge, if any class interval ended wider than
// the margin, or if the adaptive run saved nothing: the injections-saved
// claim is a correctness gate, not just a datapoint.
func measureAdaptive() (fixedFlips, adaptiveFlips int, marginPct float64, err error) {
	const targetMargin = 0.05
	config := func() sfi.CampaignConfig {
		c := sfi.DefaultCampaignConfig()
		c.Runner.AVP.Testcases = 8
		c.Runner.AVP.BodyOps = 24
		c.Seed = 7
		c.Flips = 4000
		c.Workers = 2
		return c
	}
	fixedCfg := config()
	fixedRep, err := sfi.RunCampaign(fixedCfg)
	if err != nil {
		return 0, 0, 0, err
	}
	if fixedRep.Total != fixedCfg.Flips {
		return 0, 0, 0, fmt.Errorf("fixed-N campaign ran %d of %d injections", fixedRep.Total, fixedCfg.Flips)
	}
	adaptiveCfg := config()
	adaptiveCfg.Stop = sfi.StopConfig{TargetMargin: targetMargin, StopOnConverge: true}
	adaptiveRep, err := sfi.RunCampaign(adaptiveCfg)
	if err != nil {
		return 0, 0, 0, err
	}
	c := adaptiveRep.Convergence
	if c == nil || !c.Converged {
		return 0, 0, 0, fmt.Errorf("adaptive campaign did not converge within the %d-injection budget", adaptiveCfg.Flips)
	}
	for _, ci := range c.Classes {
		if ci.Width > targetMargin {
			return 0, 0, 0, fmt.Errorf("adaptive campaign stopped with class %s at width %.4f (target %.4f)",
				ci.Class, ci.Width, targetMargin)
		}
	}
	if adaptiveRep.Total >= fixedRep.Total {
		return 0, 0, 0, fmt.Errorf("adaptive stop saved nothing: %d vs fixed %d injections",
			adaptiveRep.Total, fixedRep.Total)
	}
	return fixedRep.Total, adaptiveRep.Total, 100 * targetMargin, nil
}

// measureStratified pairs two campaigns chasing the same stoppable target —
// every sampling stratum of the plan within the target margin, or its
// census exhausted — and returns how many injections each needed. The
// uniform side replays the campaign's own uniform bit sample one injection
// at a time into a strata-gated estimator and stops the moment coverage is
// reached; the stratified side is a real Neyman-allocated adaptive
// campaign at the same seed, margin and confidence. Small strata are where
// the two diverge: uniform sampling hits a 32-latch GPTR stratum once per
// ~2000 draws, while the allocator just walks its census. It fails (rather
// than recording a number) if either side misses coverage, if any stratum
// of the stratified report ends past the margin without exhausting its
// census, or if stratified sampling saved nothing — the time-to-coverage
// claim is a correctness gate, not just a datapoint.
func measureStratified() (uniformFlips, stratifiedFlips int, marginPct float64, err error) {
	const targetMargin = 0.10
	const seed = 7
	rc := sfi.DefaultRunnerConfig()
	rc.AVP.Testcases = 4 // sample counts, not ns/op: the smaller AVP only shortens the run
	rc.AVP.BodyOps = 12
	names := make([]string, len(sfi.Outcomes)+1)
	for _, o := range sfi.Outcomes {
		names[int(o)] = o.String()
	}
	rule := stats.StopRule{TargetMargin: targetMargin, Strata: true}

	// Uniform side: the pooled sample in its deterministic order, counted
	// until every stratum is covered. The sample is drawn without
	// replacement, so the full census is a hard upper bound and coverage is
	// guaranteed; the interesting number is how early it lands.
	r, err := sfi.NewRunner(rc)
	if err != nil {
		return 0, 0, 0, err
	}
	db := r.DB()
	plan := core.BuildSamplePlan(db, seed, nil)
	est := stats.NewEstimator(names, rule)
	est.TrackStrata(plan.Populations())
	for _, bit := range core.SampleCampaignBits(db, seed, db.TotalBits(), nil) {
		res := r.RunInjection(bit)
		est.ObserveStratum(int(res.Outcome), res.Unit, res.LatchType.String(), core.StratumKey(res.Unit, res.LatchType))
		uniformFlips++
		if est.Converged() {
			break
		}
	}
	if !est.Converged() {
		return 0, 0, 0, fmt.Errorf("uniform sampling missed stratum coverage after its full %d-bit census", uniformFlips)
	}

	// Stratified side: the real adaptive campaign under Neyman allocation,
	// stopping at the first epoch boundary with full stratum coverage.
	cfg := sfi.DefaultCampaignConfig()
	cfg.Runner = rc
	cfg.Seed = seed
	cfg.Flips = 12000
	cfg.Workers = 2
	cfg.Stop = sfi.StopConfig{TargetMargin: targetMargin, StopOnConverge: true}
	cfg.Alloc = sfi.AllocConfig{Mode: sfi.AllocNeyman, Epochs: 12}
	rep, err := sfi.RunCampaign(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	if rep.Convergence == nil || !rep.Convergence.Converged {
		return 0, 0, 0, fmt.Errorf("stratified campaign missed stratum coverage within its %d-injection budget", cfg.Flips)
	}
	for key, pop := range plan.Populations() {
		counts := stats.StratumCounts{Counts: make(map[string]int64)}
		for outcome, n := range rep.ByStratum[key] {
			counts.Counts[outcome.String()] += int64(n)
			counts.Total += int64(n)
		}
		if !rule.StratumConverged(names, counts, pop) {
			return 0, 0, 0, fmt.Errorf("stratified campaign stopped with stratum %s uncovered (%d of %d drawn)",
				key, counts.Total, pop)
		}
	}
	stratifiedFlips = rep.Total
	if stratifiedFlips >= uniformFlips {
		return 0, 0, 0, fmt.Errorf("stratified allocation saved nothing: %d vs uniform %d injections to coverage",
			stratifiedFlips, uniformFlips)
	}
	return uniformFlips, stratifiedFlips, 100 * targetMargin, nil
}

// cacheResult is one cold/warm campaign-server measurement pair.
type cacheResult struct {
	coldMs, warmMs         float64 // submit-to-report wall latency
	coldBootMs, warmBootMs float64 // prototype acquisition (build vs clone)
}

// speedup is the warm-cache boot speedup: how much faster the second
// campaign reached its first injection because the checkpoint image was
// cloned instead of rebuilt.
func (c cacheResult) speedup() float64 {
	if c.warmBootMs <= 0 {
		return 0
	}
	return c.coldBootMs / c.warmBootMs
}

// measureCacheHit boots an in-process campaign server and submits two
// campaigns that differ only in sampling seed: same backend, same
// workload, same config digest. The first builds the checkpoint image
// cold; the second must hit the warm cache and boot from a clone. Both
// latencies are measured submit-to-report; the gated ratio is the boot
// phase (prototype acquisition), which is what the cache actually
// accelerates.
func measureCacheHit() (cacheResult, error) {
	dir, err := os.MkdirTemp("", "sfi-bench-cache-*")
	if err != nil {
		return cacheResult{}, err
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{Dir: dir, MaxConcurrent: 1, PollEvery: time.Millisecond})
	if err != nil {
		return cacheResult{}, err
	}
	defer srv.Close()

	spec := func(seed uint64) server.Spec {
		rc := sfi.DefaultRunnerConfig()
		rc.AVP.Testcases = 8 // benchRunner() scale: small AVP, full model
		rc.AVP.BodyOps = 24
		return server.Spec{
			Campaign:  dist.CampaignSpec{Runner: rc, Seed: seed, Flips: 64},
			ShardSize: 64,
		}
	}
	runOne := func(seed uint64) (ms, bootMs float64, hit bool, err error) {
		t0 := time.Now()
		c, err := srv.Submit(spec(seed))
		if err != nil {
			return 0, 0, false, err
		}
		deadline := time.Now().Add(5 * time.Minute)
		for c.State != server.StateDone {
			if c.State == server.StateFailed || c.State == server.StateCancelled {
				return 0, 0, false, fmt.Errorf("cache measurement campaign %s: %s", c.State, c.Error)
			}
			if time.Now().After(deadline) {
				return 0, 0, false, fmt.Errorf("cache measurement campaign stuck in %s", c.State)
			}
			time.Sleep(time.Millisecond)
			c, _ = srv.Get(c.ID)
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6, c.BootMs, c.ImageHit, nil
	}

	var res cacheResult
	var hit bool
	if res.coldMs, res.coldBootMs, hit, err = runOne(7); err != nil {
		return res, err
	}
	if hit {
		return res, fmt.Errorf("cold submission reported a warm-cache hit")
	}
	if res.warmMs, res.warmBootMs, hit, err = runOne(8); err != nil {
		return res, err
	}
	if !hit {
		return res, fmt.Errorf("warm submission missed the checkpoint cache " +
			"(the speedup would compare two cold boots)")
	}
	return res, nil
}

// goBench runs the selected benchmarks and returns the combined output.
func goBench(pkg, pattern, benchtime string, count int) (string, error) {
	args := []string{"test", "-run", "xxx", "-bench", pattern,
		"-benchtime", benchtime, "-count", strconv.Itoa(count), pkg}
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

// benchLine matches `BenchmarkName[-P]  N  123 ns/op  456 unit ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench extracts every benchmark result line from go test output.
func parseBench(out string) map[string][]sample {
	res := make(map[string][]sample)
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		s := sample{metrics: make(map[string]float64)}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if fields[i+1] == "ns/op" {
				s.nsPerOp = v
			} else {
				s.metrics[fields[i+1]] = v
			}
		}
		res[m[1]] = append(res[m[1]], s)
	}
	return res
}

// best returns the fastest (minimum ns/op) sample for a benchmark; for
// throughput metrics it keeps the maximum observed value of each metric.
func best(samples map[string][]sample, name string) (sample, error) {
	ss := samples[name]
	if len(ss) == 0 {
		return sample{}, fmt.Errorf("no result for %s", name)
	}
	out := ss[0]
	for _, s := range ss[1:] {
		if s.nsPerOp < out.nsPerOp {
			out.nsPerOp = s.nsPerOp
		}
		for k, v := range s.metrics {
			if v > out.metrics[k] {
				out.metrics[k] = v
			}
		}
	}
	return out, nil
}
