package dist

import (
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
)

// reopenAppend opens the journal, checks it replays want entries, appends
// one more shard entry and closes it again — one coordinator restart.
func reopenAppend(t *testing.T, path string, hdr journalHeader, want int) {
	t.Helper()
	j, entries, err := openJournal(path, hdr, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(entries) != want {
		t.Fatalf("replayed %d entries, want %d", len(entries), want)
	}
	if err := j.append(want, fakeWire(10)); err != nil {
		t.Fatal(err)
	}
}

// appendRaw appends bytes to the journal file as a crashed writer would.
func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailTruncated: a crash mid-append leaves a torn last line.
// Reopening must cut it off, so every entry appended afterwards survives
// every later restart instead of being glued onto the torn bytes.
func TestJournalTornTailTruncated(t *testing.T) {
	hdr := journalHeader{V: 1, Seed: 7, Flips: 60, ShardSize: 10}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	reopenAppend(t, path, hdr, 0)
	appendRaw(t, path, []byte(`{"shard":1,"report":{"tot`))
	for want := 1; want <= 4; want++ {
		reopenAppend(t, path, hdr, want)
	}
}

// TestJournalTornHeaderIsFresh: a header line without its newline (a crash
// while the journal was being created) carries no entries, so the journal
// starts afresh — whether the header bytes are cut short or complete.
func TestJournalTornHeaderIsFresh(t *testing.T) {
	hdr := journalHeader{V: 1, Seed: 7, Flips: 60, ShardSize: 10}
	line, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	for name, torn := range map[string][]byte{"cut": line[:len(line)/2], "unterminated": line} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.journal")
			appendRaw(t, path, torn)
			reopenAppend(t, path, hdr, 0)
			reopenAppend(t, path, hdr, 1)
		})
	}
}
