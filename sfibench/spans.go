package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans recorded by the benchmark around its calls into each layer:
// workload → campaign or submission → setup / run / HTTP call → engine
// call. They live in memory while the workload runs and are written out
// as JSONL when it ends. Spans are recorded only in the traced run.

// span is one timed call. Parent 0 means a root span.
type span struct {
	Run    string `json:"run"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanRecorder struct {
	on  atomic.Bool
	run string
	cur atomic.Int64 // parent for spans recorded from inside the engine

	mu   sync.Mutex
	list []span // in id order: ids are assigned under mu
}

var spans spanRecorder

// start enables recording under a run identifier.
func (r *spanRecorder) start(run string) {
	r.run = run
	r.on.Store(true)
}

// stop disables recording.
func (r *spanRecorder) stop() { r.on.Store(false) }

// setParent names the span engine-side spans are parented under.
func (r *spanRecorder) setParent(id int64) { r.cur.Store(id) }

func (r *spanRecorder) parent() int64 { return r.cur.Load() }

// record stores a finished span and returns its id (0 when off).
func (r *spanRecorder) record(name, layer string, parent int64, start, end time.Time) int64 {
	if !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.list) + 1)
	r.list = append(r.list, span{
		Run: r.run, ID: id, Parent: parent, Name: name, Layer: layer,
		Start: start.UnixNano(), End: end.UnixNano(),
	})
	return id
}

// open starts a span whose end is set later by close; it returns the id
// children use as their parent (0 when off).
func (r *spanRecorder) open(name, layer string, parent int64) int64 {
	now := time.Now()
	return r.record(name, layer, parent, now, now)
}

// close sets the end of an open span.
func (r *spanRecorder) close(id int64) {
	if id == 0 {
		return
	}
	end := time.Now().UnixNano()
	r.mu.Lock()
	r.list[id-1].End = end
	r.mu.Unlock()
}

// write stores the spans as JSONL.
func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.list {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func (r *spanRecorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.list {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.list {
		covered := coveredNs(s, children[s.ID])
		out[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// printSelfTimes writes the per-layer self-time table.
func (r *spanRecorder) printSelfTimes() {
	st := r.selfTimes()
	layers := make([]string, 0, len(st))
	for l := range st {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	r.mu.Lock()
	n := len(r.list)
	r.mu.Unlock()
	fmt.Printf("spans: %d recorded\n", n)
	for _, l := range layers {
		fmt.Printf("  self time %-8s %10.3f ms\n", l, float64(st[l].Nanoseconds())/1e6)
	}
}
