package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"sfi/internal/core"
	"sfi/internal/dist"
	"sfi/internal/server"
	"sfi/internal/store"
)

// The service workload: an in-process sfi-server over an on-disk store,
// driven over loopback HTTP by a closed loop of clients (one connection
// each). Every client submits its own seeded stream of small campaigns,
// waits for the report, and submits the next.

const (
	// serviceExact is each client's exact set: the campaigns every run
	// submits at least, and the ones its simulated statistics come from.
	serviceExact = 50
	serviceShard = 50 // injections per dist shard
	servicePoll  = 2 * time.Millisecond
	serviceBoots = 19 // throwaway boots per run for the setup median
	// serviceBatch is the report count time_to_report_s waits for: the
	// service's answer is a batch of campaigns, not one.
	serviceBatch = 100
)

// serviceAVPSeeds are the AVP seeds every client draws its p6lite images
// from. They are part of the workload, not of the run seed: which AVP a
// campaign runs changes its cost per injection, and the run seed should
// vary the campaigns, not the mix of programs.
var serviceAVPSeeds = []uint64{0x5eed1, 0x5eed2, 0x5eed3}

// serviceMix is the per-client submission cycle, so the kind shares are
// exact: 8/20 p6lite fixed-N, 5/20 Neyman adaptive, 4/20 awan fixed-N and
// 3/20 exact repeats of an earlier submission (answered by dedup).
var serviceMix = strings.Fields("p6 ney p6 awan p6 rep ney p6 awan p6 ney rep p6 awan ney p6 rep p6 awan ney")

// neymanUnits are the units the Neyman campaigns target, in turn.
var neymanUnits = []string{"FXU", "LSU", "IFU"}

// submission is one campaign a client submitted and what came back.
type submission struct {
	kind     string
	spec     server.Spec
	repeatOf int // index of the repeated submission, -1 if none

	rec      server.Campaign
	doc      server.ReportDoc
	etag     string
	ok       bool // every call answered 2xx and the campaign is done
	err      error
	latency  time.Duration // POST to fetched report
	submit   time.Duration
	report   time.Duration
	polls    []time.Duration
	finished time.Time
}

type serviceClient struct {
	id     int
	rng    *rand.Rand
	neyman int // Neyman campaigns drawn so far
	http   *http.Client
	subs   []submission
}

func newServiceClient(seed uint64, id int) *serviceClient {
	return &serviceClient{
		id:  id,
		rng: rand.New(rand.NewPCG(seed, uint64(id)+0x5e41)),
		http: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

// next draws the client's next submission; it depends only on the seed
// and the client's own earlier draws.
func (c *serviceClient) next() submission {
	i := len(c.subs)
	kind := serviceMix[i%len(serviceMix)]
	if kind == "rep" {
		for {
			j := c.rng.IntN(i)
			if c.subs[j].repeatOf < 0 {
				return submission{kind: kind, spec: c.subs[j].spec, repeatOf: j}
			}
		}
	}
	rc := core.DefaultRunnerConfig()
	rc.AVP.Testcases = 4
	rc.AVP.BodyOps = 16
	rc.AVP.Seed = serviceAVPSeeds[c.rng.IntN(len(serviceAVPSeeds))]
	camp := dist.CampaignSpec{Runner: rc, Seed: c.rng.Uint64(), ShardWorkers: 1, Flips: 200}
	switch kind {
	case "ney":
		camp.Flips = 2000
		camp.Filter = dist.FilterSpec{Kind: "unit", Arg: neymanUnits[c.neyman%len(neymanUnits)]}
		c.neyman++
		camp.Alloc = core.AllocConfig{Mode: core.AllocNeyman, Epochs: 20}
		camp.Stop = core.StopConfig{TargetMargin: 0.2, MinPerClass: 20, StopOnConverge: true}
	case "awan":
		camp.Runner = core.DefaultRunnerConfig()
		camp.Runner.Backend = "awan"
		camp.Runner.Awan.Lanes = 16
		camp.Flips = 400
	}
	return submission{kind: kind, spec: server.Spec{Tenant: fmt.Sprintf("client%d", c.id), Campaign: camp}, repeatOf: -1}
}

// loop submits campaigns until at least n are done and the deadline (zero
// = none) has passed. traced switches the engines to their timing
// decorators.
func (c *serviceClient) loop(base string, n int, deadline time.Time, traced bool, parent int64) {
	for len(c.subs) < n || time.Now().Before(deadline) {
		s := c.next()
		spec := s.spec
		if traced {
			spec.Campaign.Runner.Backend = timedName(spec.Campaign.Runner.Backend)
		}
		c.do(base, spec, &s, parent)
		c.subs = append(c.subs, s)
	}
}

// do submits one campaign, polls its record until it settles and fetches
// the report.
func (c *serviceClient) do(base string, spec server.Spec, s *submission, parent int64) {
	body, err := json.Marshal(spec)
	if err != nil {
		s.err = err
		return
	}
	t0 := time.Now()
	csp := spans.open("submit-to-report", "server", parent)
	defer func() {
		s.latency = time.Since(t0)
		s.finished = time.Now()
		spans.close(csp)
	}()
	s.submit, s.err = c.call(http.MethodPost, base+"/v1/campaigns", body, &s.rec, nil, csp)
	for s.err == nil && (s.rec.State == server.StateQueued || s.rec.State == server.StateRunning) {
		time.Sleep(servicePoll)
		var d time.Duration
		d, s.err = c.call(http.MethodGet, base+"/v1/campaigns/"+s.rec.ID, nil, &s.rec, nil, csp)
		s.polls = append(s.polls, d)
	}
	if s.err != nil {
		return
	}
	if s.rec.State != server.StateDone {
		s.err = fmt.Errorf("campaign %s ended %s: %s", s.rec.ID, s.rec.State, s.rec.Error)
		return
	}
	var hdr http.Header
	s.report, s.err = c.call(http.MethodGet, base+"/v1/campaigns/"+s.rec.ID+"/report", nil, &s.doc, &hdr, csp)
	if s.err != nil {
		return
	}
	s.etag = hdr.Get("ETag")
	s.ok = true
	if s.rec.StartedAt != nil && s.rec.FinishedAt != nil {
		spans.record("queue.wait", "server", csp, s.rec.SubmittedAt, *s.rec.StartedAt)
		spans.record("campaign.run", "server", csp, *s.rec.StartedAt, *s.rec.FinishedAt)
	}
}

// call makes one HTTP request, decoding a 2xx JSON body into out; any
// other status is an error.
func (c *serviceClient) call(method, url string, body []byte, out any, hdr *http.Header, parent int64) (time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	spans.record("http."+strings.ToLower(method), "http", parent, t0, t0.Add(d))
	if err != nil {
		return d, err
	}
	if resp.StatusCode/100 != 2 {
		return d, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if hdr != nil {
		*hdr = resp.Header
	}
	return d, json.Unmarshal(data, out)
}

// service is a running in-process server with its HTTP listener.
type service struct {
	dir  string
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error

	once    sync.Once
	stopErr error
}

// startService boots a server over a fresh store and waits until its API
// answers; the returned duration is the set-up time.
func startService(o opts) (*service, time.Duration, error) {
	dir, err := os.MkdirTemp(o.work, "store-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := server.New(server.Config{Dir: dir, MaxConcurrent: o.copies, ShardSize: serviceShard})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s := &service{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: time.Minute}).Get(s.base + "/v1/status")
	if err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // readiness probe only
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status probe: %s", resp.Status)
		}
	}
	d := time.Since(t0)
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, d, nil
}

// stop shuts the listener, drains the server and removes its store. It
// may be called more than once.
func (s *service) stop() error {
	s.once.Do(func() {
		err := s.hs.Shutdown(context.Background())
		if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		s.srv.Close()
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
		s.stopErr = err
	})
	return s.stopErr
}

// syncDir flushes a directory's entries to disk.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// servicePass boots a server and runs the clients against it.
type servicePass struct {
	setup   time.Duration
	wall    time.Duration
	batchAt time.Duration // from the first submission to the serviceBatch-th report
	clients []*serviceClient
	svc     *service
}

func runServicePass(o opts, deadline time.Duration, traced bool, parent int64) (*servicePass, error) {
	svc, setup, err := startService(o)
	if err != nil {
		return nil, err
	}
	p := &servicePass{setup: setup, svc: svc}
	for i := 0; i < o.copies; i++ {
		p.clients = append(p.clients, newServiceClient(o.seed, i))
	}
	start := time.Now()
	var end time.Time
	if deadline > 0 {
		end = start.Add(deadline)
	}
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(svc.base, serviceExact, end, traced, parent)
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	var ends []time.Time
	for _, c := range p.clients {
		for _, s := range c.subs {
			ends = append(ends, s.finished)
		}
	}
	slices.SortFunc(ends, time.Time.Compare)
	p.batchAt = ends[min(serviceBatch, len(ends))-1].Sub(start)
	return p, nil
}

func runService(o opts, out *outcome) error {
	if !o.trace {
		// Let the file system commit whatever an earlier run removed, so
		// that the boots below time this server, not that backlog.
		if err := syncDir(o.work); err != nil {
			return err
		}
		var setups []float64
		for i := 0; i < serviceBoots; i++ {
			svc, d, err := startService(o)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			if err := svc.stop(); err != nil {
				return err
			}
		}
		p, err := runServicePass(o, o.seconds, false, 0)
		if err != nil {
			return err
		}
		defer p.svc.stop()
		setups = append(setups, p.setup.Seconds())
		var lat []float64
		var injections float64
		done := 0
		for _, c := range p.clients {
			for _, s := range c.subs {
				out.attempted++
				if !s.ok {
					out.failed++
					continue
				}
				done++
				lat = append(lat, ms(s.latency))
				if !s.rec.Dedup {
					injections += float64(s.doc.Report.Total)
				}
			}
		}
		m := out.metrics
		m["inj_per_s"] = ratio(injections, p.wall.Seconds())
		m["time_to_report_s"] = (p.setup + p.batchAt).Seconds()
		m["setup_s"] = median(setups)
		m["submit_to_report_p50_ms"] = quantile(lat, 0.5)
		m["submit_to_report_p90_ms"] = quantile(lat, 0.9)
		m["campaigns_per_s"] = ratio(float64(done), p.wall.Seconds())
		m["injections_to_margin"] = p.injectionsToMargin()
		fmt.Printf("campaigns: %d done of %d in %.3f s by %d clients; latency percentiles over %d samples; setup median of %d boots\n",
			done, out.attempted, p.wall.Seconds(), len(p.clients), len(lat), len(setups))
		p.check(out)
		p.printExact()
		m["peak_mem_mb"] = peakMemMB()
		return p.svc.stop()
	}

	// Traced run: the exact sets untraced, then again through the timing
	// decorators with spans on; both must report identical outcomes.
	plain, err := runServicePass(o, 0, false, 0)
	if err != nil {
		return err
	}
	if err := plain.svc.stop(); err != nil {
		return err
	}
	engineStats.reset()
	spans.start(fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	root := spans.open("workload", "bench", 0)
	spans.setParent(root)
	traced, err := runServicePass(o, 0, true, root)
	spans.close(root)
	spans.stop()
	if err != nil {
		return err
	}
	defer traced.svc.stop()
	for ci, c := range traced.clients {
		for i, s := range c.subs {
			out.attempted += 2
			u := plain.clients[ci].subs[i]
			for _, x := range []submission{u, s} {
				if !x.ok {
					out.failed++
					out.fail("client %d campaign %d: %v", ci, i, x.err)
				}
			}
			if u.ok && s.ok && !sameWireCounts(u.doc.Report, s.doc.Report) {
				out.fail("client %d campaign %d: traced outcomes %v differ from untraced %v",
					ci, i, s.doc.Report.Counts, u.doc.Report.Counts)
			}
		}
	}
	if len(out.problems) > 0 {
		return nil
	}
	traced.check(out)
	traced.printExact()
	fmt.Printf("traced pass %.3f s, untraced pass %.3f s\n", traced.wall.Seconds(), plain.wall.Seconds())
	traced.layerMetrics(out.metrics)
	out.metrics["bench.trace_overhead_frac"] = 1 - ratio(traced.injRate(), plain.injRate())
	return traced.svc.stop()
}

// injRate is the pass's classified injections per second.
func (p *servicePass) injRate() float64 {
	var n float64
	for _, c := range p.clients {
		for _, s := range c.subs {
			if s.ok && !s.rec.Dedup {
				n += float64(s.doc.Report.Total)
			}
		}
	}
	return ratio(n, p.wall.Seconds())
}

// exactSet calls fn on every submission of every client's exact set.
func (p *servicePass) exactSet(fn func(s *submission)) {
	for _, c := range p.clients {
		for i := 0; i < serviceExact; i++ {
			fn(&c.subs[i])
		}
	}
}

func (p *servicePass) injectionsToMargin() float64 {
	var xs []float64
	p.exactSet(func(s *submission) {
		if s.kind == "ney" && s.ok {
			xs = append(xs, float64(s.doc.Report.Total))
		}
	})
	return mean(xs)
}

// check verifies every report: totals, dedup answers, and one campaign of
// each local-capable kind run again locally (local ≡ service).
func (p *servicePass) check(out *outcome) {
	localDone := make(map[string]bool)
	for ci, c := range p.clients {
		for i, s := range c.subs {
			if !s.ok {
				continue
			}
			rep := s.doc.Report
			sum := 0
			for _, n := range rep.Counts {
				sum += n
			}
			flips := s.spec.Campaign.Flips
			switch {
			case sum != rep.Total:
				out.fail("client %d campaign %d: total %d, counts sum %d", ci, i, rep.Total, sum)
			case !s.rec.Dedup && s.rec.Injections != rep.Total:
				out.fail("client %d campaign %d: record says %d injections, report %d", ci, i, s.rec.Injections, rep.Total)
			case s.kind == "ney" && (rep.Total > flips || s.doc.Convergence == nil || !s.doc.Convergence.Converged):
				out.fail("client %d campaign %d: adaptive report not converged within budget", ci, i)
			case (s.kind == "p6" || s.kind == "awan") && rep.Total != flips:
				out.fail("client %d campaign %d: %d injections, want %d", ci, i, rep.Total, flips)
			case s.etag != `"`+s.rec.ReportHash+`"`:
				out.fail("client %d campaign %d: report ETag %s, record hash %s", ci, i, s.etag, s.rec.ReportHash)
			}
			if s.repeatOf >= 0 {
				orig := c.subs[s.repeatOf]
				if !s.rec.Dedup || s.rec.ReportHash != orig.rec.ReportHash {
					out.fail("client %d campaign %d: repeat of %d not served by dedup with the original hash (dedup %v, %s vs %s)",
						ci, i, s.repeatOf, s.rec.Dedup, s.rec.ReportHash, orig.rec.ReportHash)
				}
			} else if s.rec.Dedup {
				out.fail("client %d campaign %d: a new spec was answered by dedup", ci, i)
			}
			if (s.kind == "p6" || s.kind == "ney") && !localDone[s.kind] {
				localDone[s.kind] = true
				p.checkLocal(s, out)
			}
		}
	}
}

// checkLocal runs a service campaign's spec in-process and compares the
// outcome counts with the service's report.
func (p *servicePass) checkLocal(s submission, out *outcome) {
	spec := s.spec.Campaign
	f, err := spec.Filter.Filter()
	if err != nil {
		out.fail("local rerun: %v", err)
		return
	}
	rep, err := core.RunCampaign(core.CampaignConfig{
		Runner: spec.Runner, Seed: spec.Seed, Flips: spec.Flips, Filter: f,
		Workers: 1, Stop: spec.Stop, Alloc: spec.Alloc,
	})
	if err != nil {
		out.fail("local rerun of %s: %v", s.rec.ID, err)
		return
	}
	if !sameWireCounts(dist.EncodeReport(rep), s.doc.Report) {
		out.fail("campaign %s: service outcomes %v, local %v", s.rec.ID, s.doc.Report.Counts, rep.Counts)
	}
}

func sameWireCounts(a, b *dist.WireReport) bool {
	if a.Total != b.Total || len(a.Counts) != len(b.Counts) {
		return false
	}
	for k, n := range a.Counts {
		if b.Counts[k] != n {
			return false
		}
	}
	return true
}

// printExact prints the exact sets' simulated statistics and kind shares.
func (p *servicePass) printExact() {
	counts := make(map[string]int)
	kinds := make(map[string]int)
	total, dedup := 0, 0
	p.exactSet(func(s *submission) {
		kinds[s.kind]++
		if s.rec.Dedup {
			dedup++
			return
		}
		total += s.doc.Report.Total
		for k, n := range s.doc.Report.Counts {
			counts[k] += n
		}
	})
	fmt.Printf("exact set: %d campaigns (p6lite %d, neyman %d, awan %d, repeats %d; %d dedup), %d injections:",
		len(p.clients)*serviceExact, kinds["p6"], kinds["ney"], kinds["awan"], kinds["rep"], dedup, total)
	for _, oc := range core.Outcomes {
		fmt.Printf(" %s=%d", oc, counts[oc.String()])
	}
	ic := p.svc.srv.Status().ImageCache
	fmt.Printf("\nimage cache over the whole run: %d hits, %d misses\n", ic.Hits, ic.Misses)
}

// layerMetrics derives the dist, store, server and engine figures of a
// traced pass from the clients' timings, the campaign records, the
// campaigns' shard events and journals, and the decorators.
func (p *servicePass) layerMetrics(m map[string]float64) {
	// Draining the server waits for every campaign goroutine, so the
	// decorators' counters are settled before they are read.
	p.svc.srv.Close()
	st, err := store.Open(p.svc.dir)
	if err != nil {
		return
	}
	var submit, poll, report, queue, run, bootHit, bootMiss []float64
	var runPhaseNs, journalBytes float64
	shards, grants, requeues, dedup, all := 0, 0, 0, 0, 0
	for _, c := range p.clients {
		for _, s := range c.subs {
			all++
			submit = append(submit, ms(s.submit))
			report = append(report, ms(s.report))
			for _, d := range s.polls {
				poll = append(poll, ms(d))
			}
			if s.rec.Dedup {
				dedup++
				continue
			}
			if s.rec.StartedAt == nil || s.rec.FinishedAt == nil {
				continue
			}
			runDur := s.rec.FinishedAt.Sub(*s.rec.StartedAt)
			queue = append(queue, ms(s.rec.StartedAt.Sub(s.rec.SubmittedAt)))
			run = append(run, ms(runDur))
			runPhaseNs += float64(runDur.Nanoseconds()) - s.rec.BootMs*1e6
			if s.rec.ImageHit {
				bootHit = append(bootHit, s.rec.BootMs)
			} else {
				bootMiss = append(bootMiss, s.rec.BootMs)
			}
			if fi, err := os.Stat(st.JournalPath(s.rec.ID)); err == nil {
				journalBytes += float64(fi.Size())
			}
			ev := shardEvents(st.EventsPath(s.rec.ID))
			shards += ev["completed"]
			grants += ev["lease"]
			requeues += ev["requeued"]
		}
	}
	busy := engineMetrics(m, runPhaseNs)
	m["dist.shards"] = float64(shards)
	m["dist.lease_grants"] = float64(grants)
	m["dist.requeues"] = float64(requeues)
	m["dist.shard_overhead_ms"] = ratio(runPhaseNs-busy, float64(shards)) / 1e6
	m["dist.journal_bytes_per_shard"] = ratio(journalBytes, float64(shards))
	status := p.svc.srv.Status()
	m["store.image_hit_ratio"] = ratio(float64(status.ImageCache.Hits), float64(status.ImageCache.Hits+status.ImageCache.Misses))
	m["store.boot_hit_ms"] = median(bootHit)
	m["store.boot_miss_ms"] = median(bootMiss)
	m["store.dedup_frac"] = ratio(float64(dedup), float64(all))
	m["store.report_get_ms"] = median(report)
	m["server.submit_ms"] = median(submit)
	m["server.status_get_ms"] = median(poll)
	m["server.queue_wait_ms"] = median(queue)
	m["server.run_ms"] = median(run)
}

// shardEvents counts a campaign's shard-lifecycle events by kind.
func shardEvents(path string) map[string]int {
	out := make(map[string]int)
	f, err := os.Open(path)
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"shard_event"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Kind != "" {
			out[ev.Kind]++
		}
	}
	return out
}
