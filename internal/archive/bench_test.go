package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bba/internal/telemetry"
)

// benchStore builds a compacted store of n events in b.TempDir.
func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	s, err := Open(Config{Dir: b.TempDir(), CompactEvents: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	const batch = 512
	for i := 0; i < n; i += batch {
		end := i + batch
		if end > n {
			end = n
		}
		if err := s.Append("bench", batchOf(i, end)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.CompactAll(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAggregate is the columnar rollup path: footer pruning plus
// column-slab folds, no row materialization.
func BenchmarkAggregate(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Aggregate(Query{Run: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows != n {
			b.Fatalf("rows = %d, want %d", r.Rows, n)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkScanSession is the per-session query on a sealed multi-block
// run with the decoded blocks cached: the row filter plus materializing
// the session's events. One pass over the sessions warms the cache first.
func BenchmarkScanSession(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n)
	var sessions []string
	for i := 0; i < 14; i++ {
		sessions = append(sessions, testEvent(i).Session)
	}
	scan := func(sess string) int {
		count := 0
		if err := s.Scan(Query{Run: "bench", Session: sess}, func(telemetry.Event) bool { count++; return true }); err != nil {
			b.Fatal(err)
		}
		return count
	}
	for _, sess := range sessions {
		scan(sess)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scan(sessions[i%len(sessions)]) == 0 {
			b.Fatal("scan matched nothing")
		}
	}
}

// BenchmarkScanSessionCold is the per-session query as a one-shot tool
// (bbaquery -dir) makes it: a fresh read-only store per query, so every
// block is read from its file and decoded — only the pages the query
// reads.
func BenchmarkScanSessionCold(b *testing.B) {
	const n = 100_000
	dir := benchStore(b, n).cfg.Dir
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ro, err := OpenReadOnly(dir)
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		if err := ro.Scan(Query{Run: "bench", Session: testEvent(i % 14).Session}, func(telemetry.Event) bool { count++; return true }); err != nil {
			b.Fatal(err)
		}
		if count == 0 {
			b.Fatal("scan matched nothing")
		}
	}
}

// BenchmarkAggregateCold is BenchmarkAggregate on a fresh read-only store
// per query: footer pruning plus decoding the columns the rollup needs.
func BenchmarkAggregateCold(b *testing.B) {
	const n = 100_000
	dir := benchStore(b, n).cfg.Dir
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ro, err := OpenReadOnly(dir)
		if err != nil {
			b.Fatal(err)
		}
		r, err := ro.Aggregate(Query{Run: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if r.Rows != n {
			b.Fatalf("rows = %d, want %d", r.Rows, n)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkJSONLAggregate is the equivalent row-wise baseline: read the
// exported JSONL journal and fold it line by line — what every analysis
// did before the columnar store existed.
func BenchmarkJSONLAggregate(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n)
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Export("bench", f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		st := newAggState()
		rows := 0
		for len(data) > 0 {
			nl := bytes.IndexByte(data, '\n')
			line := data[:nl+1]
			data = data[nl+1:]
			e, ok := telemetry.ParseJSONL(line)
			if !ok {
				e = parseLoose(line)
			}
			st.addEvent(&e)
			rows++
		}
		if rows != n {
			b.Fatalf("rows = %d, want %d", rows, n)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkScanKind measures a selective scan: one kind out of eight, so
// dictionary-index filtering skips 7/8 rows before materializing.
func BenchmarkScanKind(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		err := s.Scan(Query{Run: "bench", Kinds: []telemetry.Kind{telemetry.RebufferStart}},
			func(telemetry.Event) bool { count++; return true })
		if err != nil {
			b.Fatal(err)
		}
		if count == 0 {
			b.Fatal("scan matched nothing")
		}
	}
}

// BenchmarkAppend measures the WAL ingest path the collector calls inline.
func BenchmarkAppend(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	batch := batchOf(0, 64)
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append("bench", batch); err != nil {
			b.Fatal(err)
		}
	}
}
