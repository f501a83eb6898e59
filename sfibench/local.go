package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"sfi/internal/core"
	"sfi/internal/engine"
	_ "sfi/internal/engine/awan"
	_ "sfi/internal/engine/p6lite"
	"sfi/internal/latch"
	"sfi/internal/stats"
)

// localWorkload is a stream of campaigns run in-process through core:
// each campaign builds its runner (setup) and then runs to its report.
// The first exact campaigns of a run are its exact set: every run does at
// least those, and the simulated statistics it prints come from them
// alone, so they repeat exactly for a seed however fast the host is.
type localWorkload struct {
	runner  core.RunnerConfig
	flips   int
	exact   int
	margin  float64 // stop margin (adaptive) or observe-only margin (fixed-N)
	epochs  int     // > 0 selects Neyman allocation with this many epochs
	replays int     // kept results replayed per exact-set campaign
}

func localWorkloads(name string) localWorkload {
	switch name {
	case "p6lite-uniform":
		return localWorkload{runner: core.DefaultRunnerConfig(), flips: 2000, exact: 6, margin: 0.05, replays: 8}
	case "p6lite-neyman":
		return localWorkload{runner: core.DefaultRunnerConfig(), flips: 40_000, exact: 3, margin: 0.08, epochs: 160, replays: 8}
	}
	rc := core.DefaultRunnerConfig()
	rc.Backend = "awan"
	rc.Awan.Lanes = 128
	return localWorkload{runner: rc, flips: 1600, exact: 6, margin: 0.10, replays: 2}
}

// campaign is the configuration of campaign i of a run.
func (w localWorkload) campaign(rc core.RunnerConfig, seed uint64, i, copies int) core.CampaignConfig {
	cfg := core.CampaignConfig{
		Runner:      rc,
		Seed:        campaignSeed(seed, i),
		Flips:       w.flips,
		Workers:     copies,
		KeepResults: true,
	}
	if w.epochs > 0 {
		cfg.Alloc = core.AllocConfig{Mode: core.AllocNeyman, Epochs: w.epochs}
		cfg.Stop = core.StopConfig{TargetMargin: w.margin, StopOnConverge: true}
	}
	return cfg
}

// minSetups is the least number of runner set-ups a run takes the setup
// median over.
const minSetups = 15

// campaignSeed derives campaign i's sampling seed from the run seed.
func campaignSeed(seed uint64, i int) uint64 {
	return engine.Splitmix64(seed ^ engine.Splitmix64(uint64(i)+1))
}

// campaignRun is one campaign's timings and report.
type campaignRun struct {
	cfg        core.CampaignConfig
	setup, run time.Duration
	build      time.Duration // engine build inside setup (traced runs)
	rep        *core.Report
	err        error
}

// pass runs campaigns until at least n have run and the deadline (zero =
// none) has passed.
func (w localWorkload) pass(o opts, rc core.RunnerConfig, n int, deadline time.Time, parent int64) []campaignRun {
	var runs []campaignRun
	for i := 0; i < n || time.Now().Before(deadline); i++ {
		cr := campaignRun{cfg: w.campaign(rc, o.seed, i, o.copies)}
		csp := spans.open("campaign", "core", parent)
		ssp := spans.open("core.NewRunner", "core", csp)
		spans.setParent(ssp)
		t0 := time.Now()
		r, err := core.NewRunner(rc)
		cr.setup = time.Since(t0)
		spans.close(ssp)
		if err == nil {
			if st := statsOf(r.Backend()); st != nil {
				cr.build = time.Duration(st.buildNs)
			}
			rsp := spans.open("core.RunCampaignWith", "core", csp)
			spans.setParent(rsp)
			t1 := time.Now()
			cr.rep, err = core.RunCampaignWith(context.Background(), r, cr.cfg)
			cr.run = time.Since(t1)
			spans.close(rsp)
		}
		spans.close(csp)
		cr.err = err
		if i >= n && cr.rep != nil {
			// Only the exact set's results are checked; dropping the rest
			// keeps the live heap, and so peak memory, independent of how
			// many campaigns the host fitted into the run.
			cr.rep.Results = nil
		}
		runs = append(runs, cr)
		// Start every campaign from a collected heap, so the peak resident
		// size does not depend on where GC cycles fell.
		runtime.GC()
	}
	return runs
}

// statsOf returns a decorated backend's counters (nil when undecorated).
func statsOf(be engine.Backend) *backendStats {
	switch t := be.(type) {
	case *timed:
		return t.st
	case *timedBatch:
		return t.st
	case *timedBatchStats:
		return t.st
	}
	return nil
}

func runLocal(o opts, out *outcome) error {
	w := localWorkloads(o.workload)
	if !o.trace {
		start := time.Now()
		runs := w.pass(o, w.runner, w.exact, start.Add(o.seconds), 0)
		wall := time.Since(start)
		var setups, totals, runMs []float64
		var injections float64
		var runTime time.Duration
		for _, cr := range runs {
			out.attempted++
			if cr.err != nil {
				out.failed++
				out.fail("campaign seed %d: %v", cr.cfg.Seed, cr.err)
				continue
			}
			setups = append(setups, cr.setup.Seconds())
			totals = append(totals, (cr.setup + cr.run).Seconds())
			runMs = append(runMs, ms(cr.run))
			injections += float64(cr.rep.Total)
			runTime += cr.run
		}
		// More set-ups for a steady median, after the measured window.
		for len(setups) < minSetups {
			t0 := time.Now()
			if _, err := core.NewRunner(w.runner); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		m := out.metrics
		m["inj_per_s"] = ratio(injections, runTime.Seconds())
		m["time_to_report_s"] = median(totals)
		m["setup_s"] = median(setups)
		m["submit_to_report_p50_ms"] = quantile(runMs, 0.5)
		m["submit_to_report_p90_ms"] = quantile(runMs, 0.9)
		m["campaigns_per_s"] = ratio(float64(len(runMs)), wall.Seconds())
		fmt.Printf("campaigns: %d in %.3f s (%d in the exact set); latency percentiles over %d samples; setup median of %d\n",
			len(runs), wall.Seconds(), w.exact, len(runMs), len(setups))
		exact := runs[:w.exact]
		m["injections_to_margin"] = w.injectionsToMargin(exact)
		w.check(o, exact, out)
		printExact(exact)
		m["peak_mem_mb"] = peakMemMB()
		return nil
	}

	// Traced run: the exact set untraced, then again through the timing
	// decorators with spans on. Both must report identical outcomes.
	t0 := time.Now()
	plain := w.pass(o, w.runner, w.exact, time.Time{}, 0)
	plainWall := time.Since(t0)
	engineStats.reset()
	spans.start(fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	root := spans.open("workload", "bench", 0)
	rc := w.runner
	rc.Backend = timedName(rc.Backend)
	t1 := time.Now()
	traced := w.pass(o, rc, w.exact, time.Time{}, root)
	tracedWall := time.Since(t1)
	spans.close(root)
	spans.stop()
	for i := range traced {
		out.attempted += 2
		for _, cr := range []campaignRun{plain[i], traced[i]} {
			if cr.err != nil {
				out.failed++
				out.fail("campaign seed %d: %v", cr.cfg.Seed, cr.err)
			}
		}
		if plain[i].err == nil && traced[i].err == nil && !sameCounts(plain[i].rep, traced[i].rep) {
			out.fail("campaign seed %d: traced outcomes %v differ from untraced %v",
				traced[i].cfg.Seed, traced[i].rep.Counts, plain[i].rep.Counts)
		}
	}
	if len(out.problems) > 0 {
		return nil
	}
	w.check(o, traced, out)
	printExact(traced)
	fmt.Printf("traced pass %.3f s, untraced pass %.3f s\n", tracedWall.Seconds(), plainWall.Seconds())
	return w.layerMetrics(plain, traced, out.metrics)
}

// layerMetrics derives the per-layer figures of a traced pass.
func (w localWorkload) layerMetrics(plain, traced []campaignRun, m map[string]float64) error {
	var capacityNs, injections float64
	var setupMs []float64
	for _, cr := range traced {
		capacityNs += float64(cr.rep.Workers) * float64(cr.run.Nanoseconds())
		injections += float64(cr.rep.Total)
		setupMs = append(setupMs, ms(cr.setup-cr.build))
	}
	busy := engineMetrics(m, capacityNs)
	m["core.runner_setup_ms"] = median(setupMs)
	m["core.overhead_frac"] = 1 - ratio(busy, capacityNs)
	m["core.ns_per_inj_outside_engine"] = ratio(capacityNs-busy, injections)
	m["bench.trace_overhead_frac"] = 1 - ratio(injRate(traced), injRate(plain))

	// Sampling and planning, timed on this run's inputs.
	r, err := core.NewRunner(w.runner)
	if err != nil {
		return err
	}
	db := r.DB()
	var sampleMs, planMs []float64
	for _, cr := range traced {
		t0 := time.Now()
		core.SampleCampaignBits(db, cr.cfg.Seed, cr.cfg.Flips, nil)
		sampleMs = append(sampleMs, ms(time.Since(t0)))
		t1 := time.Now()
		core.BuildSamplePlan(db, cr.cfg.Seed, nil)
		planMs = append(planMs, ms(time.Since(t1)))
	}
	m["core.sample_ms"] = median(sampleMs)
	m["core.plan_ms"] = median(planMs)
	if w.epochs > 0 {
		w.statsMetrics(db, traced, m)
	}
	return nil
}

// statsMetrics times the allocator and the convergence evaluation on each
// campaign's final state and counts strata and epochs.
func (w localWorkload) statsMetrics(db *latch.DB, traced []campaignRun, m map[string]float64) {
	const reps = 20
	classes := outcomeClasses()
	rule := core.StopConfig{TargetMargin: w.margin, StopOnConverge: true, Strata: true}.Rule()
	epochBudget := (w.flips + w.epochs - 1) / w.epochs
	var strata, exhausted, epochs, allocUs, convUs []float64
	for _, cr := range traced {
		plan := core.BuildSamplePlan(db, cr.cfg.Seed, nil)
		pops := plan.Populations()
		states := make([]stats.StratumState, 0, len(plan.Strata))
		ex := 0
		for _, key := range plan.Keys() {
			st := stats.StratumState{Key: key, Population: pops[key], Counts: make(map[string]int64)}
			for oc, n := range cr.rep.ByStratum[key] {
				st.Counts[oc.String()] += int64(n)
				st.Total += int64(n)
			}
			st.Drawn = int(st.Total)
			if st.Drawn == st.Population {
				ex++
			}
			states = append(states, st)
		}
		strata = append(strata, float64(len(states)))
		exhausted = append(exhausted, float64(ex))
		epochs = append(epochs, float64((cr.rep.Total+epochBudget-1)/epochBudget))
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			rule.Allocate(classes, states, epochBudget)
		}
		allocUs = append(allocUs, float64(time.Since(t0).Nanoseconds())/1e3/reps)
		t1 := time.Now()
		for i := 0; i < reps; i++ {
			cr.rep.ComputeConvergenceStrata(rule, pops)
		}
		convUs = append(convUs, float64(time.Since(t1).Nanoseconds())/1e3/reps)
	}
	m["stats.strata"] = mean(strata)
	m["stats.strata_exhausted"] = mean(exhausted)
	m["stats.epochs"] = mean(epochs)
	m["stats.allocate_us"] = median(allocUs)
	m["stats.convergence_us"] = median(convUs)
}

// outcomeClasses maps outcome codes to class names (index 0 is padding),
// the vocabulary the stats layer evaluates.
func outcomeClasses() []string {
	names := make([]string, len(core.Outcomes)+1)
	for _, oc := range core.Outcomes {
		names[int(oc)] = oc.String()
	}
	return names
}

// engineMetrics fills the engine layers' figures from the decorators'
// counters and returns the total engine busy time in ns.
func engineMetrics(m map[string]float64, capacityNs float64) float64 {
	p := engineStats.sum("p6lite")
	if p.builds+p.clones+p.injections > 0 {
		m["p6lite.build_ms"] = ratio(float64(p.buildNs), float64(p.builds)) / 1e6
		m["p6lite.clone_ms"] = ratio(float64(p.cloneNs), float64(p.clones)) / 1e6
		m["p6lite.restore_ns"] = ratio(float64(p.restoreNs), float64(p.restores))
		m["p6lite.delay_step_ns"] = ratio(float64(p.stepNs), float64(p.delaySteps))
		m["p6lite.inject_ns"] = ratio(float64(p.injectNs), float64(p.injections))
		m["p6lite.run_ns_per_cycle"] = ratio(float64(p.runNs-p.callbackNs), float64(p.cycles))
		m["p6lite.barrier_check_ns"] = ratio(float64(p.checkNs), float64(p.checks))
		m["p6lite.verdict_ns"] = ratio(float64(p.verdictNs), float64(p.verdicts))
		m["p6lite.cycles_per_inj"] = ratio(float64(p.cycles), float64(p.injections))
		m["p6lite.barriers_per_inj"] = ratio(float64(p.barriers), float64(p.injections))
		m["p6lite.busy_frac"] = ratio(float64(p.busyNs()), capacityNs)
	}
	a := engineStats.sum("awan")
	if a.builds+a.clones+a.passes > 0 {
		m["awan.build_ms"] = ratio(float64(a.buildNs), float64(a.builds)) / 1e6
		m["awan.clone_ms"] = ratio(float64(a.cloneNs), float64(a.clones)) / 1e6
		m["awan.pass_ms"] = ratio(float64(a.passNs), float64(a.passes)) / 1e6
		m["awan.pass_restore_us"] = ratio(float64(a.passRestoreNs), float64(a.passes)) / 1e3
		m["awan.pass_run_ns_per_cycle"] = ratio(float64(a.passRunNs), float64(a.passCycles))
		m["awan.cycles_per_pass"] = ratio(float64(a.passCycles), float64(a.passes))
		m["awan.lane_occupancy"] = ratio(float64(a.lanes), float64(a.passes*a.maxLanes))
		m["awan.quiesced_frac"] = ratio(float64(a.quiesced), float64(a.lanes))
		m["awan.busy_frac"] = ratio(float64(a.busyNs()), capacityNs)
	}
	return float64(p.busyNs() + a.busyNs())
}

// injRate is a pass's classified injections per second of campaign time.
func injRate(runs []campaignRun) float64 {
	var n float64
	var d time.Duration
	for _, cr := range runs {
		if cr.rep != nil {
			n += float64(cr.rep.Total)
			d += cr.run
		}
	}
	return ratio(n, d.Seconds())
}

func sameCounts(a, b *core.Report) bool {
	if a.Total != b.Total || len(a.Counts) != len(b.Counts) {
		return false
	}
	for oc, n := range a.Counts {
		if b.Counts[oc] != n {
			return false
		}
	}
	return true
}

// injectionsToMargin is the mean, over the exact set, of the injections a
// campaign needs before its stop rule fires. For an adaptive campaign that
// is its report total. For a fixed-N campaign it is the smallest sample
// size at which the same sequential rule is met at the campaign's final
// outcome proportions: unlike the first prefix that happens to meet the
// rule, it does not hinge on the order the sample's rare outcomes arrived
// in, so it stays steady across seeds.
func (w localWorkload) injectionsToMargin(exact []campaignRun) float64 {
	classes := outcomeClasses()
	rule := stats.StopRule{TargetMargin: w.margin}
	var xs []float64
	for _, cr := range exact {
		if cr.rep == nil {
			continue
		}
		n := cr.rep.Total
		if w.epochs == 0 {
			n = 0
			for m := 1; m <= cr.rep.Total && n == 0; m++ {
				counts := make(map[string]int64, len(cr.rep.Counts))
				for oc, k := range cr.rep.Counts {
					counts[oc.String()] = int64(math.Round(float64(k) * float64(m) / float64(cr.rep.Total)))
				}
				if rule.Eval(classes, counts, int64(m)).Converged {
					n = m
				}
			}
			if n == 0 {
				fmt.Printf("campaign seed %d: the %g margin is not met within its %d injections\n",
					cr.cfg.Seed, w.margin, cr.rep.Total)
				n = cr.rep.Total
			}
		}
		xs = append(xs, float64(n))
	}
	return mean(xs)
}

// check verifies every report of the exact set: totals agree with the
// counts and the campaign size, adaptive campaigns converged, and a seeded
// sample of kept results replays identically through a fresh runner (for
// awan a scalar one, so the replay also checks batch ≡ scalar).
func (w localWorkload) check(o opts, runs []campaignRun, out *outcome) {
	rc := w.runner
	if rc.Backend == "awan" {
		rc.BatchLanes = 1
	}
	fresh, err := core.NewRunner(rc)
	if err != nil {
		out.fail("replay runner: %v", err)
		return
	}
	rng := rand.New(rand.NewPCG(o.seed, 0x5fb))
	for _, cr := range runs {
		rep := cr.rep
		if rep == nil {
			continue
		}
		sum := 0
		for _, n := range rep.Counts {
			sum += n
		}
		if sum != rep.Total || len(rep.Results) != rep.Total {
			out.fail("seed %d: total %d, counts sum %d, %d results", cr.cfg.Seed, rep.Total, sum, len(rep.Results))
		}
		if w.epochs > 0 {
			strat := 0
			for _, row := range rep.ByStratum {
				for _, n := range row {
					strat += n
				}
			}
			if strat != rep.Total || rep.Total > w.flips || rep.Convergence == nil || !rep.Convergence.Converged {
				out.fail("seed %d: adaptive report not converged within budget (total %d, strata sum %d)",
					cr.cfg.Seed, rep.Total, strat)
			}
		} else if rep.Total != w.flips {
			out.fail("seed %d: fixed-N report has %d injections, want %d", cr.cfg.Seed, rep.Total, w.flips)
		}
		for k := 0; k < w.replays && len(rep.Results) > 0; k++ {
			want := rep.Results[rng.IntN(len(rep.Results))]
			if got := fresh.RunInjection(want.Bit); got != want {
				out.fail("seed %d bit %d: replay gave %+v, report has %+v", cr.cfg.Seed, want.Bit, got, want)
			}
		}
	}
}

// printExact prints the simulated statistics of the exact set, which a
// simulator-only speed-up must leave unchanged.
func printExact(exact []campaignRun) {
	counts := make(map[core.Outcome]int)
	total := 0
	for _, cr := range exact {
		if cr.rep == nil {
			continue
		}
		total += cr.rep.Total
		for oc, n := range cr.rep.Counts {
			counts[oc] += n
		}
	}
	fmt.Printf("exact set: %d campaigns, %d injections:", len(exact), total)
	for _, oc := range core.Outcomes {
		fmt.Printf(" %s=%d", oc, counts[oc])
	}
	fmt.Println()
}
