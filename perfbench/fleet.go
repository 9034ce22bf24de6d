package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bba/internal/abtest"
	"bba/internal/archive"
	"bba/internal/collect"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/telemetry"
)

// The fleet workload: session journals rendered during setup are replayed
// through one collect.Shipper connection into bbacollect -store (collect +
// archive), while one query connection sends an open-loop mix of
// per-session Scans and per-group Aggregates to /query. archive takes the
// writes (WAL, inline compaction) and the reads under one lock, so a gain
// on one side that costs the other shows. The session engine runs only
// during setup.
//
// A run replays the journal in rounds, each a new run id, so every round
// does the same work. Queries read the first round, which a collector
// restart has sealed into blocks: history on the live store.
const (
	// fleetEvents is the journal size a round replays.
	fleetEvents = 70_000
	// fleetQueryRate is the offered /query rate, per second. A query of
	// the sealed run takes 20–50 ms, and up to about 300 ms when it waits
	// on an inline compaction, so queries do not queue behind each other
	// even when the machine runs slow.
	fleetQueryRate = 4.0
	// fleetPacedRate is the offered event rate, per second, of the phase
	// that measures query latency: a tenth of the ingest capacity of a
	// 2-CPU machine, so queries compete with steady ingest and with an
	// inline compaction every 6.5 s, not with a busy collector.
	fleetPacedRate = 10_000.0
	// fleetSatRounds is how many rounds measure ingest throughput.
	fleetSatRounds = 6
	// fleetAggEvery makes every fourth query a per-group Aggregate; the
	// rest are per-session Scans.
	fleetAggEvery = 4
	// OnEvent never blocks: it drops once the shipper's four batch buffers
	// all wait on its framer. The replay therefore lets at most
	// fleetFraming sealed batches wait on the framer, and at most
	// fleetQueued frames wait in the queue for acknowledgement: enough
	// that the single sender never idles while the replay sleeps.
	fleetFraming = 2
	fleetQueued  = 64
	// fleetMaxLateMS is the p99 query-generator lateness beyond which a
	// run is invalid.
	fleetMaxLateMS = 25.0
)

// fleetJournal is the rendered input: the events in replay order, their
// journal bytes, and per-session and per-group event counts the query
// checks compare against.
type fleetJournal struct {
	events   []telemetry.Event
	journal  []byte
	sessions []string
	bySess   map[string]int
	byGroup  map[string]int
	groups   []string
}

// renderJournal streams sessions drawn from seed through the player in
// virtual time, round-robin over the standard arms, until fleetEvents
// events are journaled. Each session is labelled as the A/B harness
// labels them, so group rollups see the arms.
func renderJournal(seed int64) (*fleetJournal, error) {
	catalog, err := media.NewCatalog(24, media.DefaultLadder(), seed)
	if err != nil {
		return nil, err
	}
	groups := abtest.StandardGroups()
	j := &fleetJournal{bySess: map[string]int{}, byGroup: map[string]int{}}
	for _, g := range groups {
		j.groups = append(j.groups, g.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; len(j.events) < fleetEvents; i++ {
		u := abtest.DrawUser(abtest.PopulationConfig{}, i%12, 0, rng)
		env, err := abtest.NewSessionEnv(u, u.Pick(catalog), nil, 0)
		if err != nil {
			return nil, err
		}
		g := groups[i%len(groups)]
		label := fmt.Sprintf("d0.w%d.s%d.%s", i%12, i, g.Name)
		pc := env.PlayerConfig(g)
		pc.Observer = telemetry.Func(func(e telemetry.Event) {
			e.Session = label
			j.events = append(j.events, e)
		})
		if _, err := player.Run(pc); err != nil {
			return nil, err
		}
		j.sessions = append(j.sessions, label)
	}
	j.events = j.events[:fleetEvents]
	for _, e := range j.events {
		j.journal = telemetry.AppendJSONL(j.journal, e)
		j.bySess[e.Session]++
		j.byGroup[telemetry.GroupOfSession(e.Session)]++
	}
	return j, nil
}

// fleetRig is a running collector and the journal it is fed.
type fleetRig struct {
	c        *child
	launch   func(ctx context.Context, instance int) (*child, error)
	restarts int
	store    string
	journal  *fleetJournal
	runs     []string
	sent     int64
	admitted int64                // by the collectors stopped so far
	shipper  collect.ShipperStats // summed over rounds
	queryRun string               // the sealed run the queries read
	queryID  atomic.Int64         // last query id handed out; ids join client and server spans
}

// startFleet renders the journal and starts a collector on a fresh store:
// the workload's setup. traced selects the benchmark-built collector.
func startFleet(ctx context.Context, b *bench, traced bool, n int) (*fleetRig, error) {
	j, err := renderJournal(b.seed)
	if err != nil {
		return nil, err
	}
	kind := "bbacollect"
	if traced {
		kind = "traced"
	}
	store := filepath.Join(b.work, fmt.Sprintf("store-%s-%d", kind, n))
	bin, args := filepath.Join(b.bin, "bbacollect"), []string{"-addr", "127.0.0.1:0", "-store", store}
	if traced {
		if bin, err = os.Executable(); err != nil {
			return nil, err
		}
		args = append([]string{"serve", "collect", "-spans", filepath.Join(b.work, "collect-spans.json")}, args...)
	}
	launch := func(ctx context.Context, instance int) (*child, error) {
		log := filepath.Join(b.work, fmt.Sprintf("collect-%s-%d.%d.log", kind, n, instance))
		return startChild(ctx, log, bin, args...)
	}
	c, err := launch(ctx, 0)
	if err != nil {
		return nil, err
	}
	return &fleetRig{c: c, launch: launch, store: store, journal: j}, nil
}

// setupFleet runs the setup setupReps times, keeping the last rig, and
// returns the median setup time.
func setupFleet(ctx context.Context, b *bench, traced bool) (*fleetRig, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		rig, err := startFleet(ctx, b, traced, i)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupReps-1 {
			return rig, median(times), nil
		}
		if err := rig.c.stop(); err != nil {
			return nil, 0, fmt.Errorf("collector exit: %w", err)
		}
	}
}

// round replays the journal once under a new run id through one Shipper
// and returns the events acknowledged per second, from the first OnEvent
// until Flush returns. With pace > 0 the events are offered at pace per
// second. With tr set, OnEvent calls are timed per batch.
func (r *fleetRig) round(ctx context.Context, seed int64, pace float64, tr *tracer) (float64, error) {
	run := fmt.Sprintf("fleet-%d-r%03d", seed, len(r.runs))
	s, err := collect.NewShipper(collect.ShipperConfig{
		Addr:          r.c.url(),
		Run:           run,
		Session:       1,
		FlushInterval: -1,
		Senders:       1,
		Retry:         collect.RetryPolicy{Seed: seed},
		HTTPClient:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	})
	if err != nil {
		return 0, err
	}
	const batch = 64 // the shipper's default BatchEvents
	events := r.journal.events
	t0 := time.Now()
	for i := 0; i < len(events); i += batch {
		end := min(i+batch, len(events))
		if pace > 0 {
			time.Sleep(time.Until(t0.Add(time.Duration(float64(i) / pace * 1e9))))
		}
		ts := time.Now()
		for _, e := range events[i:end] {
			s.OnEvent(e)
		}
		if tr != nil {
			te := time.Now()
			tr.addAgg("collect.onevent", int64(len(r.runs)), -1, ts, te, int64(end-i), te.Sub(ts))
		}
		for {
			st := s.Stats()
			if int64(end/batch)-st.Queue.Pushed > fleetFraming {
				runtime.Gosched()
				continue
			}
			if st.Queue.Pushed-st.FramesShipped-st.FramesDropped > fleetQueued {
				time.Sleep(time.Millisecond)
				continue
			}
			break
		}
	}
	flushErr := s.Flush(ctx)
	elapsed := time.Since(t0)
	st := s.Stats()
	if err := s.Close(); err != nil && flushErr == nil {
		flushErr = err
	}
	if flushErr != nil {
		return 0, fmt.Errorf("shipper: %w", flushErr)
	}
	r.runs = append(r.runs, run)
	r.sent += int64(len(events))
	r.shipper.Events += st.Events
	r.shipper.EventsDropped += st.EventsDropped
	r.shipper.FramesShipped += st.FramesShipped
	r.shipper.FramesDropped += st.FramesDropped
	r.shipper.SendErrors += st.SendErrors
	r.shipper.Retries += st.Retries
	r.shipper.Queue.Spilled += st.Queue.Spilled
	return float64(st.Events-st.EventsDropped) / elapsed.Seconds(), nil
}

// queryResult is what the query generator measured.
type queryResult struct {
	latMS    []float64
	lateMS   []float64
	attempts int64
	failed   int64
	problems []error
	scanMS   []float64
	aggMS    []float64
}

// queries offers fleetQueryRate queries per second over one connection
// until stop is closed, each timed from when it was due, against the
// sealed run.
func (r *fleetRig) queries(ctx context.Context, seed int64, stop <-chan struct{}, tr *tracer) *queryResult {
	res := &queryResult{}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	// Scans walk a seeded permutation of the sessions, so every run spreads
	// its scans over the whole journal rather than over a lucky few.
	j := r.journal
	order := rand.New(rand.NewSource(seed ^ 0x9e3779b9)).Perm(len(j.sessions))
	scans := 0
	t0 := time.Now()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(float64(k) / fleetQueryRate * 1e9))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return res
			case <-time.After(wait):
			}
			res.lateMS = append(res.lateMS, float64(time.Since(due))/1e6)
		}
		select {
		case <-stop:
			return res
		default:
		}
		v := url.Values{"run": {r.queryRun}}
		agg := k%fleetAggEvery == fleetAggEvery-1
		var target string
		if agg {
			target = j.groups[(k/fleetAggEvery)%len(j.groups)]
			v.Set("group", target)
			v.Set("agg", "1")
		} else {
			target = j.sessions[order[scans%len(order)]]
			scans++
			v.Set("session", target)
		}
		res.attempts++
		id := r.queryID.Add(1)
		err := r.query(ctx, client, v, id, agg, target)
		done := time.Now()
		if err != nil {
			res.failed++
			if len(res.problems) < 5 {
				res.problems = append(res.problems, err)
			}
			continue
		}
		lat := float64(done.Sub(due)) / 1e6
		res.latMS = append(res.latMS, lat)
		if agg {
			res.aggMS = append(res.aggMS, lat)
		} else {
			res.scanMS = append(res.scanMS, lat)
		}
		if tr != nil {
			name := "query.scan"
			if agg {
				name = "query.aggregate"
			}
			tr.add(name, id, -1, due, done)
		}
	}
}

// query sends one /query and checks its answer against the journal.
func (r *fleetRig) query(ctx context.Context, client *http.Client, v url.Values, id int64, agg bool, target string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.c.url()+"/query?"+v.Encode(), nil)
	if err != nil {
		return err
	}
	req.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query %s: %s", v.Encode(), resp.Status)
	}
	if agg {
		return checkRollup(body, target, r.journal.byGroup[target])
	}
	if n := bytes.Count(body, []byte{'\n'}); n != r.journal.bySess[target] {
		return fmt.Errorf("scan of session %s returned %d events, journal has %d", target, n, r.journal.bySess[target])
	}
	return nil
}

// checkRollup requires the group's rollup to count every journaled event
// of the group.
func checkRollup(body []byte, group string, want int) error {
	var roll archive.Rollup
	if err := json.Unmarshal(body, &roll); err != nil {
		return fmt.Errorf("aggregate of %s: %w", group, err)
	}
	for _, g := range roll.Groups {
		if g.Group == group {
			if g.Events != int64(want) {
				return fmt.Errorf("aggregate of %s counted %d events, journal has %d", group, g.Events, want)
			}
			return nil
		}
	}
	return fmt.Errorf("aggregate of %s: group missing", group)
}

// collectedRE reads the admitted-event count a collector logs on exit.
var collectedRE = regexp.MustCompile(`collected: (?:\d+ frames \()?(\d+) events`)

// stopCollector stops the collector, which seals every WAL into blocks,
// and adds the events it admitted, from its exit summary, to r.admitted.
func (r *fleetRig) stopCollector() error {
	if err := r.c.stop(); err != nil {
		return fmt.Errorf("collector exit: %w", err)
	}
	logData, err := os.ReadFile(r.c.log.Name())
	if err != nil {
		return err
	}
	m := collectedRE.FindSubmatch(logData)
	if m == nil {
		return fmt.Errorf("collector log has no summary line")
	}
	n, _ := strconv.ParseInt(string(m[1]), 10, 64)
	r.admitted += n
	return nil
}

// reopen restarts the collector on the same store. Stopping it seals every
// run archived so far into blocks.
func (r *fleetRig) reopen(ctx context.Context) error {
	if err := r.stopCollector(); err != nil {
		return err
	}
	r.restarts++
	c, err := r.launch(ctx, r.restarts)
	if err != nil {
		return err
	}
	r.c = c
	return nil
}

// finish stops the collector and checks what the store kept: the admitted
// count, the shipper's loss account and every run's export against the
// journal. It returns the on-disk bytes per event.
func (r *fleetRig) finish(b *bench) (float64, error) {
	if err := r.stopCollector(); err != nil {
		return 0, err
	}
	b.check(checkAdmitted(r.admitted, r.sent, r.shipper))

	var size int64
	err := filepath.WalkDir(r.store, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	st, err := archive.OpenReadOnly(r.store)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var buf bytes.Buffer
	for _, run := range r.runs {
		buf.Reset()
		if err := st.Export(run, &buf); err != nil {
			return 0, err
		}
		b.check(checkExport(run, buf.Bytes(), r.journal.journal))
	}
	return float64(size) / float64(r.sent), nil
}

// checkAdmitted requires the collector to have admitted every event sent,
// with nothing dropped or spilled on the way.
func checkAdmitted(admitted, sent int64, st collect.ShipperStats) error {
	if st.EventsDropped != 0 || st.FramesDropped != 0 || st.Queue.Spilled != 0 {
		return fmt.Errorf("fleet: shipper dropped %d events and %d frames, spilled %d frames",
			st.EventsDropped, st.FramesDropped, st.Queue.Spilled)
	}
	if admitted != sent {
		return fmt.Errorf("fleet: collector admitted %d events, %d were sent", admitted, sent)
	}
	return nil
}

// checkExport requires a run's export to equal the journal byte for byte.
func checkExport(run string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("fleet: export of %s differs from the journal at byte %d (%d vs %d bytes)", run, i, len(got), len(want))
}

// phaseResult is one stretch of rounds with the query generator running.
type phaseResult struct {
	q   *queryResult
	eps []float64     // events acknowledged per second, per round
	cpu time.Duration // the collector's
	gen time.Duration // this process's, where the shipper runs
	n   int64         // events sent
}

// phase replays rounds: at least rounds of them, and more until d has
// passed. pace 0 replays as fast as the pipeline acknowledges, with no
// queries; otherwise events are offered at pace per second while the query
// generator runs.
func (r *fleetRig) phase(ctx context.Context, b *bench, rounds int, d time.Duration, pace float64, tr *tracer) (phaseResult, error) {
	res := phaseResult{q: &queryResult{}}
	cpu0, err := r.c.cpu()
	if err != nil {
		return res, err
	}
	gen0 := cpuSelf()
	sent0 := r.sent
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if pace > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.q = r.queries(ctx, b.seed, stop, tr)
		}()
	}
	deadline := time.Now().Add(d)
	var roundErr error
	for len(res.eps) < rounds || time.Now().Before(deadline) {
		eps, err := r.round(ctx, b.seed, pace, tr)
		if err != nil {
			roundErr = err
			break
		}
		res.eps = append(res.eps, eps)
	}
	close(stop)
	wg.Wait()
	cpu1, err := r.c.cpu()
	if roundErr != nil {
		return res, roundErr
	}
	res.cpu, res.gen, res.n = cpu1-cpu0, cpuSelf()-gen0, r.sent-sent0
	return res, err
}

// drive runs one unmeasured round and restarts the collector, which seals
// that round's run into blocks for the queries to read. Then
// fleetSatRounds saturating rounds measure ingest throughput, and paced
// rounds with queries for the rest of d measure query latency under live
// ingest.
//
// The queries read sealed history, not the WAL tail a completed run keeps
// until the collector stops: re-parsing that tail's JSON took half of a
// query's time and, being allocation-bound, tracked the memory speed of a
// shared machine from minute to minute, which spread the median by a
// quarter across runs.
//
// Queries beside a saturating replay made both figures swing by half from
// run to run on a 2-CPU machine: each slowed the other, so neither
// settled. The saturating rounds are a fixed count because a round runs
// slower the more runs the collector already holds, so a time-boxed phase
// would report a machine-speed-dependent mix of early and late rounds.
func (r *fleetRig) drive(ctx context.Context, b *bench, d time.Duration, tr *tracer) (sat, paced phaseResult, err error) {
	if _, err = r.round(ctx, b.seed, 0, nil); err != nil {
		return
	}
	if err = r.reopen(ctx); err != nil {
		return
	}
	r.queryRun = r.runs[0]
	t0 := time.Now()
	if sat, err = r.phase(ctx, b, fleetSatRounds, 0, 0, tr); err != nil {
		return
	}
	paced, err = r.phase(ctx, b, 1, d-time.Since(t0), fleetPacedRate, tr)
	return
}

// account adds the run's operations: every event offered and every query.
func (r *fleetRig) account(b *bench, qs ...*queryResult) {
	b.attempted += r.sent
	b.failed += r.shipper.EventsDropped
	for _, q := range qs {
		b.attempted += q.attempts
		b.failed += q.failed
		for _, p := range q.problems {
			b.check(p)
		}
	}
}

func runFleet(ctx context.Context, b *bench) error {
	rig, setup, err := setupFleet(ctx, b, false)
	if err != nil {
		return err
	}
	sat, paced, err := rig.drive(ctx, b, b.budget(), nil)
	if err != nil {
		rig.c.stop()
		return err
	}
	late := quantile(paced.q.lateMS, 0.99)
	b.env.GenLateMsP99 = late
	bytesPerEvent, err := rig.finish(b)
	if err != nil {
		return err
	}
	rig.account(b, sat.q, paced.q)
	if late > fleetMaxLateMS {
		return fmt.Errorf("%w: p99 query lateness %.2f ms > %.1f ms", errInvalid, late, fleetMaxLateMS)
	}
	q := paced.q
	b.set("setup_s", setup)
	b.set("throughput_per_s", float64(sat.n)/sat.cpu.Seconds())
	b.set("latency_p50_ms", median(q.latMS))
	b.set("cpu_us_per_op", float64(sat.cpu+sat.gen)/1e3/float64(sat.n))
	b.detail("ingest.events_per_s", "1/s", median(sat.eps))
	b.detail("ingest.events_per_collector_cpu_s", "1/s", float64(sat.n)/sat.cpu.Seconds())
	b.detail("ingest.fail_ratio", "ratio",
		float64(rig.shipper.EventsDropped+rig.shipper.Queue.Spilled*64+rig.shipper.SendErrors)/float64(rig.sent))
	b.detail("query.p50_ms", "ms", median(q.latMS))
	b.detail("query.p90_ms", "ms", quantile(q.latMS, 0.90))
	b.detail("query.p99_ms", "ms", quantile(q.latMS, 0.99))
	b.detail("query.count", "count", float64(len(q.latMS)))
	b.detail("query.scan_p50_ms", "ms", median(q.scanMS))
	b.detail("query.aggregate_p50_ms", "ms", median(q.aggMS))
	b.detail("archive.bytes_per_event", "B", bytesPerEvent)
	b.detail("fleet.rounds", "count", float64(len(sat.eps)+len(paced.eps)))
	return nil
}

// fleetTailScans is how many sessions tailScans scans.
const fleetTailScans = 16

// tailScans times archive.Store.Scan, from this process on a read-only view
// of the live store, over the last run the collector completed: its block
// plus the WAL tail the collector keeps until it stops. The workload's
// queries read a sealed run, so this is where the tail's read path is
// timed.
func (r *fleetRig) tailScans(b *bench) error {
	st, err := archive.OpenReadOnly(r.store)
	if err != nil {
		return err
	}
	defer st.Close()
	run := r.runs[len(r.runs)-1]
	for i, sess := range r.journal.sessions[:min(fleetTailScans, len(r.journal.sessions))] {
		n := 0
		t0 := time.Now()
		err := st.Scan(archive.Query{Run: run, Session: sess}, func(telemetry.Event) bool { n++; return true })
		t1 := time.Now()
		if err != nil {
			return err
		}
		if n != r.journal.bySess[sess] {
			b.check(fmt.Errorf("tail scan of session %s returned %d events, journal has %d", sess, n, r.journal.bySess[sess]))
		}
		b.tr.add("archive.tail_scan", int64(i), -1, t0, t1)
	}
	return nil
}

// tracedFleet measures the ingest and query paths' layers. A third of the
// time replays into bbacollect untraced, for the overhead baseline; the
// rest replays into a benchmark-built collector that times the calls into
// collect and archive, with OnEvent timed per batch and every query timed.
func tracedFleet(ctx context.Context, b *bench) error {
	base, _, err := setupFleet(ctx, b, false)
	if err != nil {
		return err
	}
	bsat, bpaced, err := base.drive(ctx, b, b.budget()/3, nil)
	if err != nil {
		base.c.stop()
		return err
	}
	if _, err := base.finish(b); err != nil {
		return err
	}
	base.account(b, bsat.q, bpaced.q)
	untraced := median(bsat.eps)

	rig, _, err := setupFleet(ctx, b, true)
	if err != nil {
		return err
	}
	sat, paced, err := rig.drive(ctx, b, b.budget()*2/3, b.tr)
	if err == nil {
		err = rig.tailScans(b)
	}
	if err != nil {
		rig.c.stop()
		return err
	}
	bytesPerEvent, err := rig.finish(b)
	if err != nil {
		return err
	}
	rig.account(b, sat.q, paced.q)
	var lates []float64
	for _, q := range []*queryResult{bsat.q, bpaced.q, sat.q, paced.q} {
		lates = append(lates, q.lateMS...)
	}
	late := quantile(lates, 0.99)
	b.env.GenLateMsP99 = late
	if late > fleetMaxLateMS {
		return fmt.Errorf("%w: p99 query lateness %.2f ms > %.1f ms", errInvalid, late, fleetMaxLateMS)
	}
	spans, err := readSpans(filepath.Join(b.work, "collect-spans.json"))
	if err != nil {
		return fmt.Errorf("collector spans: %w", err)
	}
	b.tr.merge(spans)

	traced := median(sat.eps)
	ls := b.tr.layers()
	ingest := ls["collect.ingest"]
	b.set("trace.overhead_pct", (untraced-traced)/untraced*100)
	b.set("collect.onevent_ns", ls["collect.onevent"].perCall())
	b.set("collect.frames", float64(rig.shipper.FramesShipped))
	b.set("collect.retries", float64(rig.shipper.Retries))
	b.set("collect.dropped", float64(rig.shipper.EventsDropped))
	b.set("collect.ingest_us", ingest.perCall()/1e3)
	b.set("collect.admit_self_us", ingest.selfPer(ingest.calls)/1e3)
	b.set("archive.append_us_p50", ls["archive.append"].quantileNS(0.5)/1e3)
	b.set("archive.append_us_p99", ls["archive.append"].quantileNS(0.99)/1e3)
	b.set("archive.seal_ms", ls["archive.seal"].perCall()/1e6)
	b.set("archive.scan_ms", ls["archive.scan"].perCall()/1e6)
	b.set("archive.aggregate_ms", ls["archive.aggregate"].perCall()/1e6)
	b.set("archive.tail_scan_ms", ls["archive.tail_scan"].quantileNS(0.5)/1e6)
	b.set("archive.bytes_per_event", bytesPerEvent)
	b.detail("ingest.events_per_s.untraced", "1/s", untraced)
	b.detail("ingest.events_per_s.traced", "1/s", traced)
	b.detail("archive.seals", "count", float64(ls["archive.seal"].calls))
	return nil
}
