package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"bba/internal/telemetry"
	"bba/internal/units"
)

// testEvent fabricates a deterministic event: session i%sessions within
// one of two groups, kinds cycling through the rollup-relevant taxonomy.
func testEvent(i int) telemetry.Event {
	kinds := []telemetry.Kind{
		telemetry.SessionStart, telemetry.ChunkComplete, telemetry.ChunkComplete,
		telemetry.RateSwitch, telemetry.RebufferStart, telemetry.RebufferEnd,
		telemetry.BufferSample, telemetry.SessionEnd,
	}
	group := "BBA-0"
	if i%2 == 1 {
		group = "BBA-1"
	}
	return telemetry.Event{
		Kind:          kinds[i%len(kinds)],
		Session:       fmt.Sprintf("d0.w0.s%d.%s", i%7, group),
		At:            time.Duration(i) * time.Millisecond,
		Chunk:         i % 100,
		RateIndex:     i % 5,
		PrevRateIndex: (i + 1) % 5,
		Rate:          units.BitRate(1000*1000 + i),
		Bytes:         int64(1500 * i),
		Duration:      time.Duration(i%50) * time.Millisecond,
		Throughput:    units.BitRate(3 * 1000 * 1000),
		Buffer:        time.Duration(i%240) * time.Second,
		Played:        time.Duration(i) * time.Second,
		Reservoir:     90 * time.Second,
		Protection:    -time.Second,
		Label:         "BBA-0",
	}
}

// batchOf renders events [from, to) as one journal batch.
func batchOf(from, to int) []byte {
	var b []byte
	for i := from; i < to; i++ {
		b = telemetry.AppendJSONL(b, testEvent(i))
	}
	return b
}

// TestArchiveExportLossless pins the acceptance criterion: re-exporting an
// archive reproduces the admitted journal byte for byte, across multiple
// compactions, a live WAL tail, and non-canonical lines that can only
// survive via the raw page.
func TestArchiveExportLossless(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	appendBatch := func(b []byte) {
		t.Helper()
		if err := s.Append("run1", b); err != nil {
			t.Fatal(err)
		}
		want.Write(b)
	}
	for i := 0; i < 300; i += 10 {
		appendBatch(batchOf(i, i+10))
	}
	// Non-canonical lines: reordered fields, floats, unknown kinds, plain
	// garbage. Each must come back exactly as written.
	for _, raw := range []string{
		`{"session":"s","kind":"buffer_sample"}`,
		`{"kind":"chunk_complete","session":"d0.w0.s1.BBA-1","at_ns":1.5,"bytes":2000}`,
		`{"kind":"martian_event","session":"x"}`,
		`not json at all`,
	} {
		appendBatch([]byte(raw + "\n"))
	}
	appendBatch(batchOf(300, 305)) // canonical tail after the raws

	check := func(label string, st *Store) {
		t.Helper()
		var got bytes.Buffer
		if err := st.Export("run1", &got); err != nil {
			t.Fatalf("%s: Export: %v", label, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: export is not byte-identical to the admitted journal (got %d bytes, want %d)",
				label, got.Len(), want.Len())
		}
	}
	check("live", s)

	if err := s.CompactAll(); err != nil {
		t.Fatal(err)
	}
	check("compacted", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened read-only", ro)
	if err := ro.Append("run1", []byte("{}\n")); err != ErrReadOnly {
		t.Fatalf("read-only Append error = %v, want ErrReadOnly", err)
	}
}

// TestArchiveAppendValidation pins the Append contract edges.
func TestArchiveAppendValidation(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("r", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := s.Append("r", []byte("no newline")); err == nil {
		t.Fatal("unterminated batch accepted")
	}
	// A batch beyond the WAL record bound must be refused, not persisted:
	// scanWAL would discard the oversized record as a corrupt tail on the
	// next open, silently losing an acknowledged batch.
	big := make([]byte, maxWALRecord+1)
	big[len(big)-1] = '\n'
	if err := s.Append("r", big); err == nil {
		t.Fatal("batch beyond the WAL record limit accepted")
	}
}

// TestAppendPersistsBeforeReturn pins the ACK-gating contract at the
// file level: the batch must be on the WAL file — not parked in a
// userspace buffer — the moment Append returns nil, because that return
// is what lets the collector ACK the frame and the shipper drop its only
// other copy. The store is deliberately neither compacted nor closed:
// reading the file here is exactly what a crash right now would leave.
func TestAppendPersistsBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := batchOf(0, 10)
	if err := s.Append("run1", batch); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "run1", walName))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if n := scanWAL(data, func(p []byte) { got = append(got, p...) }); n != int64(len(data)) {
		t.Fatalf("WAL has %d unframed tail bytes after a clean Append", int64(len(data))-n)
	}
	if !bytes.Equal(got, batch) {
		t.Fatalf("WAL on disk holds %d payload bytes, want the acknowledged %d-byte batch", len(got), len(batch))
	}
}

// TestArchiveCrashRecovery corrupts the WAL tail mid-record and checks
// that reopening keeps the valid prefix, drops the torn suffix, and keeps
// accepting appends.
func TestArchiveCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	good := batchOf(0, 20)
	if err := s.Append("run1", good); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("run1", batchOf(20, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the second record: truncate the WAL ten bytes short.
	walPath := filepath.Join(dir, "run1", walName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	s, err = Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tail := batchOf(40, 50)
	if err := s.Append("run1", tail); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := s.Export("run1", &got); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), good...), tail...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("recovered export = %d bytes, want %d (first batch + post-recovery batch)",
			got.Len(), len(want))
	}
}

// referenceFilter is the trivially-correct row-wise implementation Scan
// and Aggregate are checked against.
func referenceFilter(events []telemetry.Event, q Query) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range events {
		e := e
		if q.matchesEvent(&e) {
			out = append(out, e)
		}
	}
	return out
}

// populate builds a store with n events split across blocks and a WAL
// tail, returning the events in admission order.
func populate(t *testing.T, n int) (*Store, []telemetry.Event) {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir(), CompactEvents: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	events := make([]telemetry.Event, n)
	for i := range events {
		events[i] = testEvent(i)
	}
	for i := 0; i < n; i += 16 {
		end := i + 16
		if end > n {
			end = n
		}
		if err := s.Append("run1", batchOf(i, end)); err != nil {
			t.Fatal(err)
		}
	}
	return s, events
}

func TestArchiveScan(t *testing.T) {
	s, events := populate(t, 500)
	queries := []Query{
		{Run: "run1"},
		{Run: "run1", Kinds: []telemetry.Kind{telemetry.ChunkComplete}},
		{Run: "run1", Kinds: []telemetry.Kind{telemetry.RebufferStart, telemetry.SessionEnd}},
		{Run: "run1", Group: "BBA-1"},
		{Run: "run1", Session: "d0.w0.s3.BBA-1"},
		{Run: "run1", From: 100 * time.Millisecond, To: 200 * time.Millisecond},
		{Run: "run1", Kinds: []telemetry.Kind{telemetry.ChunkComplete}, Group: "BBA-0", From: 50 * time.Millisecond},
		{Run: "run1", To: time.Nanosecond}, // prunes every block but row 0's
	}
	for qi, q := range queries {
		want := referenceFilter(events, q)
		var got []telemetry.Event
		if err := s.Scan(q, func(e telemetry.Event) bool {
			got = append(got, e)
			return true
		}); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d events, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d row %d:\n got %+v\nwant %+v", qi, i, got[i], want[i])
			}
		}
	}

	// Early stop: fn returning false ends the scan.
	n := 0
	if err := s.Scan(Query{Run: "run1"}, func(telemetry.Event) bool {
		n++
		return n < 10
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early-stopped scan visited %d events, want 10", n)
	}

	if err := s.Scan(Query{Run: "nope"}, func(telemetry.Event) bool { return true }); err == nil {
		t.Fatal("scan of unknown run succeeded")
	}
}

// referenceRollup folds events row-wise with aggState's own addEvent —
// so the column-wise block path in Aggregate is what the test exercises.
func referenceRollup(events []telemetry.Event, q Query) []GroupRollup {
	st := newAggState()
	for i := range events {
		if q.matchesEvent(&events[i]) {
			st.addEvent(&events[i])
		}
	}
	var out []GroupRollup
	for _, gr := range st.groups {
		out = append(out, *gr)
	}
	return out
}

func TestArchiveAggregate(t *testing.T) {
	s, events := populate(t, 500)
	queries := []Query{
		{Run: "run1"},
		{Run: "run1", Group: "BBA-0"},
		{Run: "run1", Kinds: []telemetry.Kind{telemetry.ChunkComplete, telemetry.RebufferEnd}},
		{Run: "run1", From: 37 * time.Millisecond, To: 401 * time.Millisecond},
	}
	for qi, q := range queries {
		got, err := s.Aggregate(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want := referenceRollup(events, q)
		byGroup := map[string]GroupRollup{}
		for _, gr := range want {
			byGroup[gr.Group] = gr
		}
		if len(got.Groups) != len(byGroup) {
			t.Fatalf("query %d: %d groups, want %d", qi, len(got.Groups), len(byGroup))
		}
		for _, gr := range got.Groups {
			if gr != byGroup[gr.Group] {
				t.Fatalf("query %d group %s:\n got %+v\nwant %+v", qi, gr.Group, gr, byGroup[gr.Group])
			}
		}
	}
}

// TestBlockDetectsCorruption flips bytes in a sealed block and checks the
// CRCs catch it instead of returning silently wrong data.
func TestBlockDetectsCorruption(t *testing.T) {
	blk, err := encodeBlock("r", splitLines(batchOf(0, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlock(blk); err != nil {
		t.Fatalf("pristine block rejected: %v", err)
	}
	// Corrupt a page byte (past header, before footer).
	for _, at := range []int{8, len(blk) / 2} {
		bad := append([]byte(nil), blk...)
		bad[at] ^= 0xFF
		b, err := DecodeBlock(bad)
		if err != nil {
			continue // footer-level detection
		}
		var export bytes.Buffer
		if err := b.Export(&export); err == nil {
			t.Fatalf("corruption at byte %d went undetected", at)
		}
	}
	// Truncations must error, never panic.
	for cut := 0; cut < len(blk); cut += 97 {
		if _, err := DecodeBlock(blk[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// craftBlock wraps an arbitrary footer in a valid envelope (magics,
// version, footer CRC) — the shape an adversary who can write block
// files controls completely.
func craftBlock(t testing.TB, ft footer) []byte {
	t.Helper()
	ftJSON, err := json.Marshal(ft)
	if err != nil {
		t.Fatal(err)
	}
	blk := append([]byte(nil), blockMagic...)
	blk = append(blk, blockVersion)
	blk = append(blk, ftJSON...)
	blk = binary.LittleEndian.AppendUint32(blk, crc32.Checksum(ftJSON, blockCRCTable))
	blk = binary.LittleEndian.AppendUint32(blk, uint32(len(ftJSON)))
	return append(blk, blockEndMagic...)
}

// TestBlockRejectsCraftedFooter pins the never-panic property against
// footers that pass the CRC but carry hostile page geometry — offsets
// near MaxInt64 that overflow additive bounds checks, pages overlapping
// the header, and lengths past the file — or a hostile row count.
func TestBlockRejectsCraftedFooter(t *testing.T) {
	pages := map[string]pageInfo{
		"offset overflows int64": {Name: "kind", Off: math.MaxInt64 - 2, Len: 8},
		"length overflows int64": {Name: "kind", Off: 5, Len: math.MaxInt64 - 2},
		"page overlaps header":   {Name: "kind", Off: 0, Len: 4},
		"page past end of file":  {Name: "kind", Off: 5, Len: 1 << 30},
		"negative offset":        {Name: "kind", Off: -1, Len: 4},
	}
	for name, pg := range pages {
		blk := craftBlock(t, footer{Version: blockVersion, Rows: 1, Pages: []pageInfo{pg}})
		b, err := DecodeBlock(blk)
		if err == nil {
			// Even if decode were lenient, touching the page must not panic.
			if _, perr := b.page(pg.Name); perr == nil {
				t.Fatalf("%s: crafted page accepted outright", name)
			}
			t.Fatalf("%s: crafted footer accepted by DecodeBlock", name)
		}
	}
	// A row count past the file size is corrupt, and must be refused
	// before it sizes a column allocation.
	if _, err := DecodeBlock(craftBlock(t, footer{Version: blockVersion, Rows: math.MaxInt32})); err == nil {
		t.Fatal("row count beyond the file accepted by DecodeBlock")
	}
}

func splitLines(batch []byte) [][]byte {
	var lines [][]byte
	for len(batch) > 0 {
		nl := bytes.IndexByte(batch, '\n')
		lines = append(lines, batch[:nl+1])
		batch = batch[nl+1:]
	}
	return lines
}

// TestReadOnlySeesLiveWriter checks a read-only store on a directory a
// writer is still mutating rebuilds its view per read — WAL re-scanned,
// blocks and runs re-listed — rather than trusting stale state from
// Open: everything the writer persisted before the query must appear,
// including blocks it sealed and runs it created after the open.
func TestReadOnlySeesLiveWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append("run1", batchOf(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact("run1"); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	// After the read-only open: a second sealed block, a live WAL tail,
	// and a whole new run. All of it must be visible, none duplicated.
	if err := w.Append("run1", batchOf(5, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact("run1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("run1", batchOf(10, 12)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("run2", batchOf(0, 3)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ro.Export("run1", &got); err != nil {
		t.Fatal(err)
	}
	if want := batchOf(0, 12); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("read-only export = %d bytes, want all %d admitted bytes (including the block sealed after Open)",
			got.Len(), len(want))
	}
	got.Reset()
	if err := ro.Export("run2", &got); err != nil {
		t.Fatalf("run created after the read-only open: %v", err)
	}
	if want := batchOf(0, 3); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("read-only export of new run = %d bytes, want %d", got.Len(), len(want))
	}
	if runs := ro.Runs(); len(runs) != 2 {
		t.Fatalf("read-only Runs() = %v, want both runs", runs)
	}
}

func FuzzBlockDecode(f *testing.F) {
	blk, err := encodeBlock("r", splitLines(batchOf(0, 20)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blk)
	f.Add([]byte("BBAC"))
	f.Add([]byte{})
	// A CRC-valid footer with hostile page geometry: the fuzzer cannot
	// invent matching checksums, so seed it past the envelope checks.
	f.Add(craftBlock(f, footer{Version: blockVersion, Rows: 1,
		Pages: []pageInfo{{Name: "kind", Off: math.MaxInt64 - 2, Len: 8}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeBlock and every accessor must never panic, whatever the
		// input; corruption surfaces as errors.
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		b.Dict("kind")
		b.Dict("session")
		b.Dict("label")
		b.Ints("at_ns", nil)
		b.Raws()
		b.Export(&bytes.Buffer{})
	})
}

// TestArchiveCompactCrashWindow recreates each state a crash can leave
// mid-compaction — the WAL renamed after its block, with or without the
// block and the new empty WAL — and checks every event exports exactly
// once, whether the store reopens writable or read-only, and that a
// writable reopen keeps appending after them.
func TestArchiveCompactCrashWindow(t *testing.T) {
	journal := batchOf(0, 50)
	for _, tc := range []struct {
		name      string
		noBlock   bool // the crash came before the block's rename
		noNewWAL  bool // ... before the new empty WAL was created
		walEvents int  // events a writable reopen finds in the WAL
	}{
		{"WAL renamed, block not landed", true, true, 50},
		{"block landed, no new WAL", false, true, 0},
		{"block landed, old WAL not removed", false, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			runDir := filepath.Join(dir, "run1")
			s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i += 10 {
				if err := s.Append("run1", batchOf(i, i+10)); err != nil {
					t.Fatal(err)
				}
			}
			saved, err := os.ReadFile(filepath.Join(runDir, walName))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Compact("run1"); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(runDir, sealingWALName(1)), saved, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.noNewWAL {
				if err := os.Remove(filepath.Join(runDir, walName)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.noBlock {
				if err := os.Rename(filepath.Join(runDir, "000001.blk"), filepath.Join(runDir, ".blk-crash")); err != nil {
					t.Fatal(err)
				}
			}

			ro, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := ro.Export("run1", &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), journal) {
				t.Fatalf("read-only export after the crash = %d bytes, want the %d-byte journal", got.Len(), len(journal))
			}

			s, err = Open(Config{Dir: dir, CompactEvents: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			got.Reset()
			if err := s.Export("run1", &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), journal) {
				t.Fatalf("export after the crash = %d bytes, want the %d-byte journal", got.Len(), len(journal))
			}
			if st := s.Stats(); st[0].WALEvents != tc.walEvents {
				t.Fatalf("reopened WAL counts %d events, want %d", st[0].WALEvents, tc.walEvents)
			}
			if _, err := os.Stat(filepath.Join(runDir, sealingWALName(1))); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("writable reopen left the renamed WAL in place: %v", err)
			}
			if err := s.Append("run1", batchOf(50, 60)); err != nil {
				t.Fatal(err)
			}
			if err := s.Compact("run1"); err != nil {
				t.Fatal(err)
			}
			got.Reset()
			if err := s.Export("run1", &got); err != nil {
				t.Fatal(err)
			}
			if want := batchOf(0, 60); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("export after appending past the recovered WAL = %d bytes, want %d", got.Len(), len(want))
			}
		})
	}
}

// TestArchiveReappendAfterCompact pins that crash recovery never drops an
// unsealed event: a WAL whose batches repeat, byte for byte, the ones the
// newest block sealed must not be taken for a crash's leftover.
func TestArchiveReappendAfterCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	batch := batchOf(0, 10)
	var want []byte
	for round := 0; round < 3; round++ {
		for i := 0; i < 2; i++ {
			if err := s.Append("run1", batch); err != nil {
				t.Fatal(err)
			}
			want = append(want, batch...)
		}
		if round < 2 {
			if err := s.Compact("run1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, readOnly := range []bool{false, true} {
		var st *Store
		if readOnly {
			st, err = OpenReadOnly(dir)
		} else {
			st, err = Open(Config{Dir: dir})
		}
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := st.Export("run1", &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("read-only=%v: reopened export = %d bytes, want %d", readOnly, got.Len(), len(want))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// populateRaw builds a store whose run spans several blocks and a WAL
// tail, with non-canonical lines that only the raw page reproduces. It
// returns the journal and the distinct session labels in it.
func populateRaw(t *testing.T) (*Store, []byte, []string) {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir(), CompactEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	raws := []string{
		`{"session":"d0.w0.s2.BBA-0","kind":"buffer_sample","at_ns":5000000}`,
		`{"kind":"chunk_complete","session":"d0.w0.s1.BBA-1","at_ns":1.5,"bytes":2000}`,
		`{"kind":"martian_event","session":"x.BBA-1"}`,
		`not json at all`,
	}
	var journal []byte
	for i := 0; i < 400; i += 10 {
		b := batchOf(i, i+10)
		if i%50 == 0 {
			b = append(b, raws[(i/50)%len(raws)]+"\n"...)
		}
		if err := s.Append("run1", b); err != nil {
			t.Fatal(err)
		}
		journal = append(journal, b...)
	}
	seen := map[string]bool{}
	var sessions []string
	for _, line := range splitLines(journal) {
		e, ok := telemetry.ParseJSONL(line)
		if !ok {
			e = parseLoose(line)
		}
		if !seen[e.Session] {
			seen[e.Session] = true
			sessions = append(sessions, e.Session)
		}
	}
	return s, journal, sessions
}

// queryOutputs renders every answer a store gives to qs — each Scan as
// journal JSONL, each Aggregate as JSON — plus the run's Export.
func queryOutputs(t *testing.T, s *Store, qs []Query) [][]byte {
	t.Helper()
	var out [][]byte
	for _, q := range qs {
		var scan []byte
		if err := s.Scan(q, func(e telemetry.Event) bool {
			scan = telemetry.AppendJSONL(scan, e)
			return true
		}); err != nil {
			t.Fatalf("Scan %+v: %v", q, err)
		}
		roll, err := s.Aggregate(q)
		if err != nil {
			t.Fatalf("Aggregate %+v: %v", q, err)
		}
		agg, err := json.Marshal(roll)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, scan, agg)
	}
	var export bytes.Buffer
	if err := s.Export("run1", &export); err != nil {
		t.Fatal(err)
	}
	return append(out, export.Bytes())
}

// TestArchiveCacheWarmMatchesCold checks decoded-block caching changes no
// answer: for every session and group of a multi-block run with raw rows,
// with and without time windows, Scan, Aggregate and Export from a warm
// cache agree byte for byte with a store that decodes every block afresh.
func TestArchiveCacheWarmMatchesCold(t *testing.T) {
	s, journal, sessions := populateRaw(t)
	if st := s.Stats(); st[0].Blocks < 4 || st[0].WALEvents == 0 {
		t.Fatalf("fixture has %d blocks and %d WAL events; want several blocks and a tail", st[0].Blocks, st[0].WALEvents)
	}
	var qs []Query
	windows := [][2]time.Duration{{0, 0}, {40 * time.Millisecond, 0}, {100 * time.Millisecond, 250 * time.Millisecond}, {0, time.Nanosecond}}
	for _, w := range windows {
		qs = append(qs, Query{Run: "run1", From: w[0], To: w[1]},
			Query{Run: "run1", Kinds: []telemetry.Kind{telemetry.ChunkComplete, telemetry.RebufferEnd}, From: w[0], To: w[1]})
		for _, sess := range sessions {
			qs = append(qs, Query{Run: "run1", Session: sess, From: w[0], To: w[1]})
		}
		for _, g := range []string{"BBA-0", "BBA-1", "x", "no-such-group"} {
			qs = append(qs, Query{Run: "run1", Group: g, From: w[0], To: w[1]})
		}
	}

	cold := queryOutputs(t, s, qs) // fills the cache
	if s.cache.lru.Len() == 0 {
		t.Fatal("queries cached no block")
	}
	warm := queryOutputs(t, s, qs)
	s.cache = newBlockCache(0) // caches nothing: every query decodes afresh
	uncached := queryOutputs(t, s, qs)
	for i := range cold {
		if !bytes.Equal(warm[i], cold[i]) || !bytes.Equal(uncached[i], cold[i]) {
			t.Fatalf("answer %d differs: cold %d bytes, warm %d, uncached %d", i, len(cold[i]), len(warm[i]), len(uncached[i]))
		}
	}
	if export := cold[len(cold)-1]; !bytes.Equal(export, journal) {
		t.Fatalf("export = %d bytes, want the %d-byte journal", len(export), len(journal))
	}
}

// TestArchiveCacheConcurrent runs queries against a store that is
// appending and compacting at the same time; run it under -race. Every
// Export must be a batch-aligned prefix of the final journal.
func TestArchiveCacheConcurrent(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), CompactEvents: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("run1", batchOf(0, 10)); err != nil {
		t.Fatal(err)
	}
	const batches = 60
	journal := batchOf(0, 10*batches)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var export bytes.Buffer
				if err := s.Export("run1", &export); err != nil {
					t.Error(err)
					return
				}
				if got := export.Bytes(); !bytes.HasPrefix(journal, got) || bytes.Count(got, []byte{'\n'})%10 != 0 {
					t.Errorf("reader %d: export of %d bytes is not a batch-aligned prefix of the journal", r, len(got))
					return
				}
				q := Query{Run: "run1", Session: fmt.Sprintf("d0.w0.s%d.BBA-%d", i%7, i%2)}
				if err := s.Scan(q, func(telemetry.Event) bool { return true }); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Aggregate(Query{Run: "run1", Group: "BBA-1"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for b := 1; b < batches; b++ {
		if err := s.Append("run1", batchOf(10*b, 10*b+10)); err != nil {
			t.Error(err)
			break
		}
		if b%7 == 0 {
			if err := s.Compact("run1"); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(done)
	wg.Wait()
	var export bytes.Buffer
	if err := s.Export("run1", &export); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(export.Bytes(), journal) {
		t.Fatalf("final export = %d bytes, want %d", export.Len(), len(journal))
	}
}

// TestArchiveCacheNeverServesBadOrStale checks the cache keeps the
// block checks: a block corrupted on disk before its first read fails
// with ErrBadBlock on every path, the failure is not cached — once the
// file is restored the next query succeeds — and a block file replaced
// after it was cached is read afresh.
func TestArchiveCacheNeverServesBadOrStale(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	journal := batchOf(0, 300)
	for i := 0; i < 300; i += 100 {
		if err := s.Append("run1", batchOf(i, i+100)); err != nil {
			t.Fatal(err)
		}
	}
	blk1 := filepath.Join(dir, "run1", "000001.blk")
	orig, err := os.ReadFile(blk1)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), orig...)
	bad[pageOf(t, orig, "session").Off] ^= 0xFF // a page every query reads
	if err := os.WriteFile(blk1, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Scan(Query{Run: "run1"}, func(telemetry.Event) bool { return true }); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("Scan of a corrupt block: err = %v, want ErrBadBlock", err)
		}
		if _, err := s.Aggregate(Query{Run: "run1"}); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("Aggregate of a corrupt block: err = %v, want ErrBadBlock", err)
		}
		if err := s.Export("run1", io.Discard); !errors.Is(err, ErrBadBlock) {
			t.Fatalf("Export of a corrupt block: err = %v, want ErrBadBlock", err)
		}
	}
	if err := os.WriteFile(blk1, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := s.Scan(Query{Run: "run1"}, func(telemetry.Event) bool { n++; return true }); err != nil || n != 300 {
		t.Fatalf("Scan after restoring the block: %d events, err %v; want 300", n, err)
	}
	var got bytes.Buffer
	if err := s.Export("run1", &got); err != nil {
		t.Fatalf("Export after restoring the block: %v", err)
	}
	if !bytes.Equal(got.Bytes(), journal) {
		t.Fatalf("export after restore = %d bytes, want %d", got.Len(), len(journal))
	}

	// Replace the now-cached first block with the third: a different
	// file under the same name, which the next read must see.
	if s.cache.get(blk1, fileIDOf(t, blk1)) == nil {
		t.Fatal("Scan did not cache the restored block")
	}
	blk3, err := os.ReadFile(filepath.Join(dir, "run1", "000003.blk"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blk1, blk3, 0o644); err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := s.Export("run1", &got); err != nil {
		t.Fatal(err)
	}
	third := batchOf(200, 300)
	want := append(append(append([]byte(nil), third...), batchOf(100, 200)...), third...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("export after replacing a cached block = %d bytes, want %d from the new file", got.Len(), len(want))
	}
}

// pageOf returns the named page's location in an encoded block.
func pageOf(t *testing.T, blk []byte, name string) pageInfo {
	t.Helper()
	b, err := DecodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range b.ft.Pages {
		if pg.Name == name {
			return pg
		}
	}
	t.Fatalf("block has no page %q", name)
	return pageInfo{}
}

// fileIDOf returns the identity the block cache keys the file at path on.
func fileIDOf(t *testing.T, path string) fileID {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fileID{size: fi.Size(), mtimeNS: fi.ModTime().UnixNano()}
}

// decodedPages lists the pages a cached block has decoded so far.
func decodedPages(cb *colBlock) []string {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	var names []string
	for _, name := range []string{"kind", "session", "label"} {
		if _, ok := cb.dicts[name]; ok {
			names = append(names, name)
		}
	}
	for i, c := range telemetry.IntColumns() {
		if cb.ints[i] != nil {
			names = append(names, c.Name)
		}
	}
	if cb.raws != nil {
		names = append(names, "raw")
	}
	return names
}

// TestArchiveCacheDecodesLazily checks a query decodes no more of a block
// than it reads, cached or not: a scan that matches no row decodes only
// the kind and session dictionaries, a rollup only the integer columns
// its kinds need, and a scan that matches decodes the rest of the event.
// A page that fails its CRC when a later query first reads it evicts the
// block, so the next query reads the file again.
func TestArchiveCacheDecodesLazily(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("run1", batchOf(0, 200)); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("run1"); err != nil {
		t.Fatal(err)
	}
	blk1 := filepath.Join(dir, "run1", "000001.blk")
	cached := func() *colBlock { return s.cache.get(blk1, fileIDOf(t, blk1)) }
	scan := func(q Query) (int, error) {
		n := 0
		err := s.Scan(q, func(telemetry.Event) bool { n++; return true })
		return n, err
	}

	if n, err := scan(Query{Run: "run1", Session: "no-such-session"}); err != nil || n != 0 {
		t.Fatalf("scan of an absent session: %d events, err %v", n, err)
	}
	cb := cached()
	if cb == nil {
		t.Fatal("scan did not cache the block")
	}
	if got, want := decodedPages(cb), []string{"kind", "session"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("scan matching no row decoded %v, want %v", got, want)
	}
	if _, err := s.Aggregate(Query{Run: "run1"}); err != nil {
		t.Fatal(err)
	}
	want := []string{"kind", "session", "rate_index", "prev_rate_index", "rate_bps", "bytes", "duration_ns", "played_ns"}
	if got := decodedPages(cb); !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate decoded %v, want %v", got, want)
	}

	// Corrupt a page no query has read yet, in the cached bytes: the
	// first scan that needs it fails, and the block leaves the cache.
	pg := pageOf(t, cb.data, "buffer_ns")
	cb.data[pg.Off] ^= 0xFF
	if _, err := scan(Query{Run: "run1", Session: "d0.w0.s3.BBA-1"}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("scan reading a corrupt page: err = %v, want ErrBadBlock", err)
	}
	if cached() != nil {
		t.Fatal("a block whose page failed its CRC stayed cached")
	}
	n, err := scan(Query{Run: "run1", Session: "d0.w0.s3.BBA-1"})
	if want := len(referenceFilter(eventsOf(0, 200), Query{Session: "d0.w0.s3.BBA-1"})); err != nil || n != want {
		t.Fatalf("scan after the eviction: %d events, err %v; want %d", n, err, want)
	}
}

// eventsOf returns testEvent(i) for i in [from, to).
func eventsOf(from, to int) []telemetry.Event {
	var events []telemetry.Event
	for i := from; i < to; i++ {
		events = append(events, testEvent(i))
	}
	return events
}

// TestArchiveCacheBudget queries more blocks than the cache's budget
// holds and checks the cached bytes never exceed it.
func TestArchiveCacheBudget(t *testing.T) {
	s, events := populate(t, 2000) // 15 sealed blocks of 128 events
	if err := s.CompactAll(); err != nil {
		t.Fatal(err)
	}
	one, err := s.Aggregate(Query{Run: "run1"})
	if err != nil {
		t.Fatal(err)
	}
	// Measure a block's footprint with every page a scan reads decoded.
	if err := s.Scan(Query{Run: "run1"}, func(telemetry.Event) bool { return true }); err != nil {
		t.Fatal(err)
	}
	var blockSize int64
	for el := s.cache.lru.Front(); el != nil; el = el.Next() {
		blockSize = max(blockSize, el.Value.(*cacheEntry).size)
	}
	budget := 3*blockSize + blockSize/2
	s.cache = newBlockCache(budget)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 20; i++ {
			q := Query{Run: "run1", From: time.Duration(i*100) * time.Millisecond, To: time.Duration(i*100+99) * time.Millisecond}
			n := 0
			if err := s.Scan(q, func(telemetry.Event) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			if want := len(referenceFilter(events, q)); n != want {
				t.Fatalf("window %d: %d events, want %d", i, n, want)
			}
			if s.cache.used > budget {
				t.Fatalf("cache holds %d bytes, over its %d-byte budget", s.cache.used, budget)
			}
		}
	}
	if n := s.cache.lru.Len(); n != 3 {
		t.Fatalf("cache holds %d blocks, want the 3 that fit", n)
	}
	again, err := s.Aggregate(Query{Run: "run1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, one) {
		t.Fatal("rollup through the evicting cache differs")
	}
}

// TestArchiveCompactAfterClose checks a compaction after Close fails
// cleanly, without sealing a block or panicking, and the data stays
// whole for the next open.
func TestArchiveCompactAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("run1", batchOf(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactAll(); err == nil {
		t.Fatal("CompactAll after Close succeeded")
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ro.Export("run1", &got); err != nil {
		t.Fatal(err)
	}
	if want := batchOf(0, 10); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("export = %d bytes, want %d", got.Len(), len(want))
	}
	if st := ro.Stats(); st[0].Blocks != 0 {
		t.Fatalf("compaction after Close sealed %d blocks", st[0].Blocks)
	}
}
