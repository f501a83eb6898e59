package main

import (
	"reflect"
	"testing"

	"sfi/internal/core"
	"sfi/internal/engine"
)

// decoratorCases are small campaigns on each real backend.
func decoratorCases() map[string]core.CampaignConfig {
	p6 := core.DefaultRunnerConfig()
	p6.AVP.Testcases = 2
	p6.AVP.BodyOps = 4
	aw := core.DefaultRunnerConfig()
	aw.Backend = "awan"
	aw.Awan.Lanes = 8
	return map[string]core.CampaignConfig{
		"p6lite": {Runner: p6, Seed: 11, Flips: 60, Workers: 2, KeepResults: true},
		"awan":   {Runner: aw, Seed: 11, Flips: 200, Workers: 2, KeepResults: true},
	}
}

// TestDecoratorsKeepOutcomes runs each campaign through the real backend
// and through its timing decorator: the reports must be identical.
func TestDecoratorsKeepOutcomes(t *testing.T) {
	for name, cfg := range decoratorCases() {
		plain, err := core.RunCampaign(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Runner.Backend = timedName(name)
		timed, err := core.RunCampaign(cfg)
		if err != nil {
			t.Fatalf("%s decorated: %v", name, err)
		}
		if !reflect.DeepEqual(plain.Counts, timed.Counts) || !reflect.DeepEqual(plain.Results, timed.Results) {
			t.Errorf("%s: decorated outcomes %v differ from undecorated %v", name, timed.Counts, plain.Counts)
		}
	}
}

// TestDecoratorsMirrorInterfaces checks that a decorator exposes the
// batch extension exactly when the wrapped backend does (core picks its
// dispatch path by type assertion), that clones stay decorated, and that
// the counters see the work.
func TestDecoratorsMirrorInterfaces(t *testing.T) {
	for name, cfg := range decoratorCases() {
		inner, err := engine.New(cfg.Runner)
		if err != nil {
			t.Fatal(err)
		}
		rc := cfg.Runner
		rc.Backend = timedName(name)
		r, err := core.NewRunner(rc)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range []engine.Backend{r.Backend(), r.Backend().Clone()} {
			if statsOf(be) == nil {
				t.Fatalf("%s: %T is not a timing decorator", name, be)
			}
			_, innerBatch := inner.(engine.BatchBackend)
			_, batch := be.(engine.BatchBackend)
			_, innerRep := inner.(engine.BatchStatsReporter)
			_, rep := be.(engine.BatchStatsReporter)
			if batch != innerBatch || rep != (innerRep && innerBatch) {
				t.Errorf("%s: %T batch=%v reporter=%v, wrapped backend batch=%v reporter=%v",
					name, be, batch, rep, innerBatch, innerRep)
			}
		}
		if r.BatchSize() > 1 {
			bits := core.SampleCampaignBits(r.DB(), 1, 1, nil)
			r.RunInjectionBatch(bits)
		} else {
			r.RunInjection(0)
		}
		st := statsOf(r.Backend())
		if st.buildNs <= 0 || st.busyNs() <= 0 {
			t.Errorf("%s: counters missed the work: build %d ns, busy %d ns", name, st.buildNs, st.busyNs())
		}
	}
}

func TestCoveredNs(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 60}}
	if got := coveredNs(p, kids); got != 50 {
		t.Fatalf("coveredNs = %d, want 50", got)
	}
}
