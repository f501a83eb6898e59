package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"

	"sfi/internal/core"
	"sfi/internal/stats"
)

// The campaign journal is a JSONL file: a header line binding it to one
// campaign plan, then one line per completed shard, plus — for adaptive
// campaigns — one stop-decision line recording the sealed-counts
// convergence evaluation the coordinator stopped on, and — for stratified
// campaigns — one allocation line per epoch recording the budget split and
// the exact shard leases it planned. Lines are appended and fsync'd as the
// decisions happen, so a coordinator killed at any point can be restarted
// over the same journal and resume with every durably completed shard
// already marked done, every recorded allocation re-applied verbatim (in
// order — an allocation is a function of the sealed counts before it), and
// the stop decision, if one was reached, honored verbatim. A torn final
// line (crash mid-append) is truncated away on open — that work simply
// reruns.

type journalHeader struct {
	V    int    `json:"v"`
	Seed uint64 `json:"seed"`
	// Backend is the resolved engine backend name: shard reports from
	// different machine models must never be merged, so a journal written
	// by one backend rejects resumption under another.
	Backend   string     `json:"backend,omitempty"`
	Flips     int        `json:"flips"`
	ShardSize int        `json:"shard_size"`
	Filter    FilterSpec `json:"filter"`
	// Stop binds the journal to one stopping rule: replaying shards
	// recorded under one rule while evaluating another would let the same
	// journal yield different stop decisions.
	Stop core.StopConfig `json:"stop,omitempty"`
	// Alloc binds the journal to one allocation policy, for the same
	// reason. The zero value (uniform) keeps old journals resumable:
	// their headers decode to the zero value and still compare equal.
	Alloc core.AllocConfig `json:"alloc,omitzero"`
}

// allocRecord is one allocation-epoch decision: the budget the Neyman
// allocator split, the per-stratum shares it chose, and the exact shard
// leases the epoch was planned into. Replay applies the leases verbatim —
// the record makes the re-allocation durable before any of its shards can
// complete, so a restarted coordinator extends the same per-stratum
// sequences instead of re-deriving them against a half-settled ledger.
type allocRecord struct {
	Epoch  int                  `json:"epoch"`
	Budget int                  `json:"budget"`
	Shares []stats.StratumShare `json:"shares"`
	Shards []ShardLease         `json:"shards"`
}

// journalEntry is one post-header line, discriminated by Shard: >= 0 is a
// completed shard's report, -1 the convergence stop decision, -2 an
// allocation epoch.
type journalEntry struct {
	Shard  int                `json:"shard"`
	Report *WireReport        `json:"report,omitempty"`
	Stop   *stats.Convergence `json:"stop,omitempty"`
	Alloc  *allocRecord       `json:"alloc,omitempty"`
}

const (
	journalShardStop  = -1
	journalShardAlloc = -2
)

// replayEntry is one decoded journal line in file order.
type replayEntry struct {
	shard  int
	report *core.Report
	stop   *stats.Convergence
	alloc  *allocRecord
}

type journal struct {
	f *os.File
}

// openJournal opens (or creates) the journal at path for the campaign
// described by hdr, returning the recovered entries in file order. An
// existing journal whose header does not match hdr is rejected: resuming a
// different campaign over it would merge unrelated shards. Only
// newline-terminated lines are complete; a torn tail is cut off the file
// before appending, so the next entry starts on a line of its own instead
// of being glued onto the torn bytes.
func openJournal(path string, hdr journalHeader, log *slog.Logger) (*journal, []replayEntry, error) {
	var entries []replayEntry
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("dist: read journal: %w", err)
	}
	// good is the length of the journal's durable prefix: the header and
	// every complete, decodable entry line after it.
	good := 0
	if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
		var got journalHeader
		if err := json.Unmarshal(data[:nl], &got); err != nil {
			return nil, nil, fmt.Errorf("dist: journal %s: bad header: %w", path, err)
		}
		if got != hdr {
			return nil, nil, fmt.Errorf("dist: journal %s belongs to a different campaign plan (%+v, want %+v)",
				path, got, hdr)
		}
		good = nl + 1
		for good < len(data) {
			end := bytes.IndexByte(data[good:], '\n')
			if end < 0 {
				break
			}
			if raw := data[good : good+end]; len(bytes.TrimSpace(raw)) != 0 {
				var e journalEntry
				if err := json.Unmarshal(raw, &e); err != nil {
					break
				}
				re := replayEntry{shard: e.Shard, stop: e.Stop, alloc: e.Alloc}
				if e.Report != nil {
					rep, err := e.Report.Report()
					if err != nil {
						return nil, nil, fmt.Errorf("dist: journal %s: shard %d: %w", path, e.Shard, err)
					}
					re.report = rep
				}
				entries = append(entries, re)
			}
			good += end + 1
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: open journal: %w", err)
	}
	j := &journal{f: f}
	if good < len(data) {
		// Torn tail from a crash mid-append (or mid-header, which leaves no
		// entries at all): drop it, and rerun whatever work it recorded.
		log.Warn("journal torn tail truncated", "path", path, "offset", good, "bytes", len(data)-good)
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("dist: truncate journal: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("dist: truncate journal: %w", err)
		}
	}
	if good == 0 {
		if err := j.writeLine(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, entries, nil
}

func (j *journal) append(shardID int, rep *WireReport) error {
	return j.writeLine(journalEntry{Shard: shardID, Report: rep})
}

// appendStop records the convergence decision the coordinator stopped on.
func (j *journal) appendStop(eval *stats.Convergence) error {
	return j.writeLine(journalEntry{Shard: journalShardStop, Stop: eval})
}

// appendAlloc records one allocation epoch's decision and planned shards.
func (j *journal) appendAlloc(rec allocRecord) error {
	return j.writeLine(journalEntry{Shard: journalShardAlloc, Alloc: &rec})
}

func (j *journal) writeLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) close() {
	j.f.Close()
}
