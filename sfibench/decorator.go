package main

import (
	"sync"
	"time"

	"sfi/internal/engine"
	"sfi/internal/latch"
	"sfi/internal/obs"
)

// Timing decorators: benchmark-only engine backends that wrap the real
// p6lite and awan factories and time every call the campaign layer makes
// into the engine from outside it. The traced run selects them by name
// (timedName); the untraced run uses the real backends, so the two runs
// differ only by the decorators and their difference is the tracing cost.

// timedPrefix turns a real backend name into its decorator's name.
const timedPrefix = "bench-"

func timedName(backend string) string { return timedPrefix + engine.Resolve(backend) }

func init() {
	for _, name := range []string{"p6lite", "awan"} {
		inner := name
		engine.Register(timedName(inner), func(cfg engine.Config) (engine.Backend, error) {
			cfg.Backend = inner
			t0 := time.Now()
			be, err := engine.New(cfg)
			if err != nil {
				return nil, err
			}
			d := time.Since(t0)
			st := engineStats.add(inner)
			st.buildNs = d.Nanoseconds()
			spans.record("engine.build", inner, spans.parent(), t0, t0.Add(d))
			return wrap(be, st), nil
		})
		engine.RegisterCensus(timedName(inner), func(cfg engine.Config) (*latch.DB, error) {
			cfg.Backend = inner
			return engine.Census(cfg)
		})
	}
}

// backendStats is one decorated backend instance's counters. A backend is
// driven by one goroutine at a time, so the fields are plain; they are
// read only once the campaigns using the instance have finished.
type backendStats struct {
	kind string // real backend name

	buildNs, cloneNs int64 // construction of this instance
	builds, clones   int64

	injections, restores, delaySteps int64
	restoreNs, stepNs, injectNs      int64
	runs, cycles, barriers           int64
	runNs, callbackNs, checkNs       int64
	checks, verdicts                 int64
	verdictNs                        int64

	passes, lanes, quiesced, passCycles int64
	passNs, passRestoreNs, passRunNs    int64
	maxLanes                            int64

	// injStart is the start of the injection in flight (its span).
	injStart time.Time
}

// busyNs is the wall time the instance spent inside engine calls.
func (s *backendStats) busyNs() int64 {
	return s.restoreNs + s.stepNs + s.injectNs + s.runNs + s.verdictNs + s.passNs
}

// statsRegistry holds every decorated instance created since the last
// reset, per real backend name.
type statsRegistry struct {
	mu   sync.Mutex
	list []*backendStats
}

var engineStats statsRegistry

func (r *statsRegistry) add(kind string) *backendStats {
	st := &backendStats{kind: kind}
	r.mu.Lock()
	r.list = append(r.list, st)
	r.mu.Unlock()
	return st
}

// reset forgets every instance; call only while no campaign runs.
func (r *statsRegistry) reset() {
	r.mu.Lock()
	r.list = nil
	r.mu.Unlock()
}

// sum folds the counters of every instance of one backend kind.
func (r *statsRegistry) sum(kind string) backendStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := backendStats{kind: kind}
	for _, s := range r.list {
		if s.kind != kind {
			continue
		}
		if s.buildNs > 0 {
			out.builds++
			out.buildNs += s.buildNs
		}
		if s.cloneNs > 0 {
			out.clones++
			out.cloneNs += s.cloneNs
		}
		out.injections += s.injections
		out.restores += s.restores
		out.delaySteps += s.delaySteps
		out.restoreNs += s.restoreNs
		out.stepNs += s.stepNs
		out.injectNs += s.injectNs
		out.runs += s.runs
		out.cycles += s.cycles
		out.barriers += s.barriers
		out.runNs += s.runNs
		out.callbackNs += s.callbackNs
		out.checkNs += s.checkNs
		out.checks += s.checks
		out.verdicts += s.verdicts
		out.verdictNs += s.verdictNs
		out.passes += s.passes
		out.lanes += s.lanes
		out.quiesced += s.quiesced
		out.passCycles += s.passCycles
		out.passNs += s.passNs
		out.passRestoreNs += s.passRestoreNs
		out.passRunNs += s.passRunNs
		if s.maxLanes > out.maxLanes {
			out.maxLanes = s.maxLanes
		}
	}
	return out
}

// timed decorates a scalar backend.
type timed struct {
	inner engine.Backend
	st    *backendStats
}

// timedBatch adds the bit-parallel extension; it is used only when the
// wrapped backend implements engine.BatchBackend, because core
// type-asserts the interface to choose its dispatch path.
type timedBatch struct {
	timed
	batch engine.BatchBackend
	rep   engine.BatchStatsReporter // nil when the wrapped backend has none
}

// timedBatchStats further exposes engine.BatchStatsReporter.
type timedBatchStats struct {
	timedBatch
}

var (
	_ engine.BatchBackend       = (*timedBatch)(nil)
	_ engine.BatchStatsReporter = (*timedBatchStats)(nil)
)

// wrap decorates be, exposing exactly the optional interfaces be has. A
// stats reporter without the batch extension is never consulted by core,
// so it stays scalar.
func wrap(be engine.Backend, st *backendStats) engine.Backend {
	t := timed{inner: be, st: st}
	bb, ok := be.(engine.BatchBackend)
	if !ok {
		return &t
	}
	tb := timedBatch{timed: t, batch: bb}
	if rep, ok := be.(engine.BatchStatsReporter); ok {
		tb.rep = rep
		return &timedBatchStats{timedBatch: tb}
	}
	return &tb
}

func (t *timed) DB() *latch.DB                     { return t.inner.DB() }
func (t *timed) Phases() int                       { return t.inner.Phases() }
func (t *timed) TakeCheckpoint() engine.Checkpoint { return t.inner.TakeCheckpoint() }
func (t *timed) Reload(ck engine.Checkpoint)       { t.inner.Reload(ck) }
func (t *timed) FIRNames() []string                { return t.inner.FIRNames() }
func (t *timed) Cycle() uint64                     { return t.inner.Cycle() }
func (t *timed) SetObs(m *obs.Metrics)             { t.inner.SetObs(m) }

// ReloadPhase starts an injection in the scalar protocol.
func (t *timed) ReloadPhase(p int) {
	t0 := time.Now()
	t.inner.ReloadPhase(p)
	t.st.restoreNs += time.Since(t0).Nanoseconds()
	t.st.restores++
	t.st.injStart = t0
}

// Step outside Run is the scalar protocol's phase-jitter delay.
func (t *timed) Step() engine.Event {
	t0 := time.Now()
	ev := t.inner.Step()
	t.st.stepNs += time.Since(t0).Nanoseconds()
	t.st.delaySteps++
	return ev
}

func (t *timed) Inject(inj engine.Injection) error {
	t0 := time.Now()
	err := t.inner.Inject(inj)
	t.st.injectNs += time.Since(t0).Nanoseconds()
	t.st.injections++
	return err
}

// Run times the propagation window; barrier callbacks are timed apart so
// the per-cycle cost excludes the caller's verification work.
func (t *timed) Run(maxCycles int, onBarrier func() bool) engine.RunStats {
	cb := func() bool {
		b0 := time.Now()
		ok := onBarrier()
		t.st.callbackNs += time.Since(b0).Nanoseconds()
		return ok
	}
	c0 := t.inner.Cycle()
	t0 := time.Now()
	rs := t.inner.Run(maxCycles, cb)
	t.st.runNs += time.Since(t0).Nanoseconds()
	t.st.cycles += int64(t.inner.Cycle() - c0)
	t.st.barriers += int64(rs.Barriers)
	t.st.runs++
	return rs
}

func (t *timed) CheckBarrier() engine.BarrierCheck {
	t0 := time.Now()
	c := t.inner.CheckBarrier()
	t.st.checkNs += time.Since(t0).Nanoseconds()
	t.st.checks++
	return c
}

// Verdict ends an injection in the scalar protocol.
func (t *timed) Verdict() engine.Verdict {
	t0 := time.Now()
	v := t.inner.Verdict()
	end := time.Now()
	t.st.verdictNs += end.Sub(t0).Nanoseconds()
	t.st.verdicts++
	spans.record("inject", t.st.kind, spans.parent(), t.st.injStart, end)
	return v
}

// Clone wraps the inner clone with fresh counters of its own: clones of
// one prototype are taken concurrently, so they must not share counters.
func (t *timed) Clone() engine.Backend {
	t0 := time.Now()
	c := t.inner.Clone()
	d := time.Since(t0)
	st := engineStats.add(t.st.kind)
	st.cloneNs = d.Nanoseconds()
	spans.record("engine.clone", t.st.kind, spans.parent(), t0, t0.Add(d))
	return wrap(c, st)
}

func (t *timedBatch) MaxBatch() int { return t.batch.MaxBatch() }

func (t *timedBatch) RunBatch(p int, injs []engine.BatchInjection, window, quiesce int) ([]engine.BatchResult, error) {
	t0 := time.Now()
	res, err := t.batch.RunBatch(p, injs, window, quiesce)
	end := time.Now()
	t.st.passNs += end.Sub(t0).Nanoseconds()
	t.st.passes++
	t.st.lanes += int64(len(injs))
	if m := int64(t.batch.MaxBatch()); m > t.st.maxLanes {
		t.st.maxLanes = m
	}
	if t.rep != nil {
		// Core reads the breakdown only when it traces, so fold it here.
		bs := t.rep.LastBatchStats()
		t.st.passRestoreNs += bs.RestoreNs
		t.st.passRunNs += bs.RunNs
		t.st.passCycles += int64(bs.Cycles)
		t.st.quiesced += int64(bs.Quiesced)
	}
	spans.record("pass", t.st.kind, spans.parent(), t0, end)
	return res, err
}

func (t *timedBatchStats) LastBatchStats() engine.BatchStats { return t.rep.LastBatchStats() }
