package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"bba/internal/archive"
	"bba/internal/collect"
	"bba/internal/dash"
	"bba/internal/media"
	"bba/internal/telemetry"
)

// requestIDHeader carries a traced request's id to the benchmark-built
// daemons, so their spans join the generator's.
const requestIDHeader = "X-Perfbench-Id"

// serveMain runs a benchmark-built daemon for the traced runs:
//
//	perfbench serve origin  -spans FILE -addr A -chunks N -chunk-ms MS -seed S
//	perfbench serve collect -spans FILE -addr A -store DIR
//
// Each serves like dashserver or bbacollect -store, times the calls into
// the program's layers, and on SIGTERM writes its spans to FILE.
func serveMain(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("want serve origin|collect")
	}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	spansPath := fs.String("spans", "", "write spans here on exit")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	chunks := fs.Int("chunks", originChunks, "title length in chunks (origin)")
	chunkMS := fs.Int("chunk-ms", originChunkMS, "chunk duration in ms (origin)")
	seed := fs.Int64("seed", 1, "title seed (origin)")
	storeDir := fs.String("store", "", "archive directory (collect)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *spansPath == "" {
		return fmt.Errorf("-spans is required")
	}
	rec := &spanLog{}
	var h http.Handler
	var closeFn func() error
	switch args[0] {
	case "origin":
		// The same title cmd/dashserver builds from these flags; the
		// benchmark checks the two manifests are identical.
		video, err := media.NewVBR(media.VBRConfig{
			Title:         "dashserver",
			Ladder:        media.DefaultLadder(),
			ChunkDuration: time.Duration(*chunkMS) * time.Millisecond,
			NumChunks:     *chunks,
		}, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		srv, err := dash.NewServer(video)
		if err != nil {
			return err
		}
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			srv.ServeHTTP(w, r)
			rec.add(span{Name: "dash.serve", ID: requestID(r), Parent: -1}, t0, time.Now())
		})
	case "collect":
		if *storeDir == "" {
			return fmt.Errorf("-store is required")
		}
		store, err := archive.Open(archive.Config{Dir: *storeDir})
		if err != nil {
			return err
		}
		tc := &tracedCollector{store: store, rec: rec, pending: map[string]*walFill{}}
		tc.c = collect.NewCollector(collect.CollectorConfig{Archive: tc})
		mux := http.NewServeMux()
		mux.Handle("/", tc.c.Handler())
		mux.HandleFunc("/ingest", tc.ingest)
		mux.HandleFunc("/query", tc.query)
		h = mux
		closeFn = func() error {
			if err := store.CompactAll(); err != nil {
				return err
			}
			if err := store.Close(); err != nil {
				return err
			}
			s := tc.c.Stats()
			fmt.Fprintf(os.Stderr, "collected: %d events; %d retried\n", s.Events, s.FramesRetry)
			return nil
		}
	default:
		return fmt.Errorf("unknown daemon %q", args[0])
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("serving on http://%s\n", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		return err
	}
	if closeFn != nil {
		if err := closeFn(); err != nil {
			return err
		}
	}
	return writeSpans(*spansPath, rec.spans)
}

// requestID reads the id a traced request carries; 0 when absent.
func requestID(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
	return id
}

// spanLog collects a daemon's spans.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add appends s timed [start, end] and returns its index.
func (l *spanLog) add(s span, start, end time.Time) int {
	s.Start, s.End, s.N, s.Busy = start.UnixNano(), end.UnixNano(), 1, int64(end.Sub(start))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// setParent makes span i a child of parent.
func (l *spanLog) setParent(i, parent int) {
	l.mu.Lock()
	l.spans[i].Parent = parent
	l.mu.Unlock()
}

// tracedCollector is a collector with an archive.Store behind a timing
// collect.Archiver. Its /ingest and /query mirror bbacollect's, with a
// span around (*collect.Collector).Ingest, archive.Store.Append,
// Store.Scan and Store.Aggregate.
type tracedCollector struct {
	c     *collect.Collector
	store *archive.Store
	rec   *spanLog

	// ingestMu orders ingests so each Append's span finds its Ingest;
	// the collector serializes archive writes under its own lock anyway.
	ingestMu sync.Mutex
	seq      int64 // the current frame's sequence number: its spans' id
	appends  []int // spans of the Appends made by the current Ingest
	pending  map[string]*walFill
}

// walFill tracks what a run's WAL holds since its last seal, to know when
// a compaction is due without polling the store on every Append.
type walFill struct {
	events, bytes int64
	blocks        int
}

// Append implements collect.Archiver.
func (tc *tracedCollector) Append(run string, batch []byte) error {
	t0 := time.Now()
	err := tc.store.Append(run, batch)
	t1 := time.Now()
	i := tc.rec.add(span{Name: "archive.append", ID: tc.seq, Parent: -1}, t0, t1)
	tc.appends = append(tc.appends, i)
	if err != nil {
		return err
	}
	// The store seals the WAL into a block at 65536 events or 16 MiB
	// (archive.Config defaults); near either, look for a new block.
	f := tc.pending[run]
	if f == nil {
		f = &walFill{}
		tc.pending[run] = f
	}
	f.events += int64(bytes.Count(batch, []byte{'\n'}))
	f.bytes += int64(len(batch))
	if f.events >= 65536*9/10 || f.bytes >= (16<<20)*9/10 {
		p0 := time.Now()
		blocks := 0
		for _, st := range tc.store.Stats() {
			if st.Run == run {
				blocks = st.Blocks
			}
		}
		probe := tc.rec.add(span{Name: "trace.stats_probe", ID: tc.seq, Parent: -1}, p0, time.Now())
		tc.appends = append(tc.appends, probe)
		if blocks > f.blocks {
			tc.rec.add(span{Name: "archive.seal", ID: tc.seq, Parent: -1}, t0, t1)
			*f = walFill{blocks: blocks}
		}
	}
	return nil
}

func (tc *tracedCollector) ingest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, collect.MaxFrame+1))
	if err != nil || len(body) > collect.MaxFrame {
		http.Error(w, "bad frame body", http.StatusBadRequest)
		return
	}
	tc.ingestMu.Lock()
	tc.seq = 0
	if f, _, err := collect.DecodeFrame(body); err == nil {
		tc.seq = int64(f.Seq)
	}
	tc.appends = tc.appends[:0]
	t0 := time.Now()
	err = tc.c.Ingest(body)
	parent := tc.rec.add(span{Name: "collect.ingest", ID: tc.seq, Parent: -1}, t0, time.Now())
	for _, i := range tc.appends {
		tc.rec.setParent(i, parent)
	}
	tc.ingestMu.Unlock()
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, collect.ErrDedupWindow), errors.Is(err, collect.ErrUnknownRun), errors.Is(err, collect.ErrArchive):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// query serves the subset of /query the fleet workload sends: run plus
// session (events as journal JSONL) or group with agg=1 (the rollup).
func (tc *tracedCollector) query(w http.ResponseWriter, r *http.Request) {
	q := archive.Query{Run: r.FormValue("run"), Session: r.FormValue("session"), Group: r.FormValue("group")}
	id := requestID(r)
	if r.FormValue("agg") == "1" {
		t0 := time.Now()
		rollup, err := tc.store.Aggregate(q)
		tc.rec.add(span{Name: "archive.aggregate", ID: id, Parent: -1}, t0, time.Now())
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rollup)
		return
	}
	var buf []byte
	t0 := time.Now()
	err := tc.store.Scan(q, func(e telemetry.Event) bool {
		buf = telemetry.AppendJSONL(buf, e)
		return true
	})
	tc.rec.add(span{Name: "archive.scan", ID: id, Parent: -1}, t0, time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(buf)
}
