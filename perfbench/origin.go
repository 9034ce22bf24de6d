package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bba/internal/abtest"
	"bba/internal/dash"
	"bba/internal/player"
)

// The origin_http workload: real-socket chunk GETs against dashserver
// running as a child process, over 2 keep-alive connections, from an
// open-loop generator that times each request from when it was due. Chunk
// rungs replay BBA-2 decision sequences of users drawn with
// abtest.DrawUser, computed in virtual time during setup, so the size mix
// spans the ladder as the paper's population does. The timed part
// exercises only dash serving and net/http.
const (
	originChunks  = 600  // a 10-minute title
	originChunkMS = 1000 // of 1-second chunks
	originUsers   = 192  // users whose decision sequences are replayed
	originConns   = 2

	// originLimitMS is the p99 fetch time, from due to last byte, that the
	// capacity search holds an offered rate to. BENCHMARK.json states it
	// in the origin_http workload's description.
	originLimitMS = 50.0
	// originFixedRate is the offered rate, in requests per second, at
	// which fetch latency and origin CPU are reported; it sits well below
	// the capacity measured on a 2-CPU machine.
	originFixedRate = 500.0
	// originLoadRate is the offered rate, in requests per second, at which
	// requests per origin CPU-second are reported: about half of what two
	// connections sustain on a 2-CPU machine. Measured with both
	// connections kept busy instead, the figure spread by a fifth across
	// ten runs, because a saturated 2-CPU machine copying 290 KiB chunks
	// through loopback runs only as fast as its memory, which the host's
	// other tenants share.
	originLoadRate = 2000.0
	// originMaxLateMS is the p99 generator lateness beyond which a run is
	// invalid.
	originMaxLateMS = 25.0
)

// chunkReq is one chunk GET.
type chunkReq struct{ rate, chunk int }

// originPlan is what setup prepares: the title's manifest and the
// interleaved request sequence.
type originPlan struct {
	manifest []byte
	sizes    [][]int64
	reqs     []chunkReq
}

// buildOriginPlan draws originUsers users from seed, streams each through
// BBA-2 in virtual time on the served title, and pools their chunk
// requests in a seeded random order.
func buildOriginPlan(seed int64, manifest []byte) (*originPlan, error) {
	var m dash.Manifest
	if err := json.Unmarshal(manifest, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	video, err := m.Video()
	if err != nil {
		return nil, err
	}
	group, err := abtest.GroupFor("BBA-2")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var seqs [][]chunkReq
	for i := 0; i < originUsers; i++ {
		u := abtest.DrawUser(abtest.PopulationConfig{}, i%12, 0, rng)
		env, err := abtest.NewSessionEnv(u, video, nil, 0)
		if err != nil {
			return nil, err
		}
		res, err := player.Run(env.PlayerConfig(group))
		if err != nil {
			return nil, err
		}
		seq := make([]chunkReq, len(res.Chunks))
		for j, c := range res.Chunks {
			seq[j] = chunkReq{env.Stream.VideoIndex(c.RateIndex), c.Index}
		}
		seqs = append(seqs, seq)
	}
	// Shuffle the requests, so every stretch of load carries the whole
	// population's mix of startup and steady-state rungs.
	p := &originPlan{manifest: manifest, sizes: m.SizesBytes}
	for _, seq := range seqs {
		p.reqs = append(p.reqs, seq...)
	}
	rng.Shuffle(len(p.reqs), func(i, j int) { p.reqs[i], p.reqs[j] = p.reqs[j], p.reqs[i] })
	if len(p.reqs) == 0 {
		return nil, fmt.Errorf("origin plan has no requests")
	}
	return p, nil
}

// meanKB is the mean chunk size the plan requests.
func (p *originPlan) meanKB() float64 {
	var sum int64
	for _, r := range p.reqs {
		sum += p.sizes[r.rate][r.chunk]
	}
	return float64(sum) / 1024 / float64(len(p.reqs))
}

// titleSeed derives the served title's seed from the workload seed.
func titleSeed(seed int64) int64 { return seed*31 + 7 }

// originArgs are the flags both origins take: the same title.
func originArgs(seed int64) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-chunks", strconv.Itoa(originChunks),
		"-chunk-ms", strconv.Itoa(originChunkMS),
		"-seed", strconv.FormatInt(titleSeed(seed), 10),
	}
}

// startOrigin starts an origin (dashserver, or with traced the
// benchmark-built one that times dash.Server.ServeHTTP), fetches its
// manifest and builds the request plan: the workload's setup.
func startOrigin(ctx context.Context, b *bench, traced bool, n int) (*child, *originPlan, error) {
	log := filepath.Join(b.work, fmt.Sprintf("origin-%d.log", n))
	var c *child
	var err error
	if traced {
		exe, err2 := os.Executable()
		if err2 != nil {
			return nil, nil, err2
		}
		args := append([]string{"serve", "origin", "-spans", filepath.Join(b.work, "origin-spans.json")}, originArgs(b.seed)...)
		c, err = startChild(ctx, log, exe, args...)
	} else {
		c, err = startChild(ctx, log, filepath.Join(b.bin, "dashserver"), originArgs(b.seed)...)
	}
	if err != nil {
		return nil, nil, err
	}
	manifest, err := getOK(ctx, http.DefaultClient, c.url()+"/manifest.json")
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	plan, err := buildOriginPlan(b.seed, manifest)
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	return c, plan, nil
}

// setupOrigin runs the setup setupReps times, keeping the last origin, and
// records the median setup time.
func setupOrigin(ctx context.Context, b *bench, traced bool) (*child, *originPlan, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		c, plan, err := startOrigin(ctx, b, traced, i)
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupReps-1 {
			return c, plan, median(times), nil
		}
		if err := c.stop(); err != nil {
			return nil, nil, 0, fmt.Errorf("origin exit: %w", err)
		}
	}
}

// generator is the open-loop load generator: one http.Client with at most
// originConns connections, shared by originConns workers.
type generator struct {
	base   string
	plan   *originPlan
	client *http.Client
	tr     *tracer // non-nil: trace every request
	cursor int     // next index into plan.reqs
	nextID atomic.Int64

	mu       sync.Mutex
	problems []error
	reqSpans map[int64]int // request id → its span index, when tracing
}

func newGenerator(base string, plan *originPlan, tr *tracer) *generator {
	transport := &http.Transport{
		MaxConnsPerHost:     originConns,
		MaxIdleConnsPerHost: originConns,
		DisableCompression:  true,
	}
	return &generator{
		base: base, plan: plan, tr: tr,
		client:   &http.Client{Transport: transport},
		reqSpans: map[int64]int{},
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// stepResult is one fixed-rate stretch of load.
type stepResult struct {
	rate      float64
	fetchMS   []float64 // due (or the generator's late wakeup) → last byte, per success
	lateMS    []float64 // generator lateness where a worker was idle at the due time
	attempted int64
	failed    int64
	backlog   int64 // requests due by the end of the step but not yet started
	reused    int64
}

// pass reports whether the step met the latency limit without a growing
// backlog: what is left at the end must clear within the limit.
func (s stepResult) pass() bool {
	return s.failed == 0 && quantile(s.fetchMS, 0.99) < originLimitMS &&
		float64(s.backlog) < s.rate*originLimitMS/1e3
}

// step offers rate requests per second for d, then waits for every due
// request to finish.
func (g *generator) step(ctx context.Context, rate float64, d time.Duration) stepResult {
	n := int64(rate * d.Seconds())
	res := stepResult{rate: rate, attempted: n}
	var next, started atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	cursor := g.cursor
	g.cursor = (g.cursor + int(n)) % len(g.plan.reqs)
	t0 := time.Now()
	for w := 0; w < originConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fetch, late []float64
			var failed, reused int64
			for {
				k := next.Add(1) - 1
				if k >= n {
					break
				}
				due := t0.Add(time.Duration(float64(k) / rate * 1e9))
				// A request is timed from when it was due, except that
				// the generator's own timer running late is not the
				// origin's doing: it is reported as lateness instead.
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
					late = append(late, float64(from.Sub(due))/1e6)
				}
				started.Add(1)
				r := g.plan.reqs[(cursor+int(k))%len(g.plan.reqs)]
				ok, wasReused := g.fetch(ctx, r, from)
				if !ok {
					failed++
					continue
				}
				if wasReused {
					reused++
				}
				fetch = append(fetch, float64(time.Since(from))/1e6)
			}
			mu.Lock()
			res.fetchMS = append(res.fetchMS, fetch...)
			res.lateMS = append(res.lateMS, late...)
			res.failed += failed
			res.reused += reused
			mu.Unlock()
		}()
	}
	time.Sleep(time.Until(t0.Add(d)))
	res.backlog = n - started.Load()
	wg.Wait()
	return res
}

// fetch GETs one chunk and checks it. It reports whether the chunk came
// back whole and whether its connection was reused.
func (g *generator) fetch(ctx context.Context, r chunkReq, from time.Time) (ok, reused bool) {
	id := g.nextID.Add(1)
	url := g.base + "/chunk/" + strconv.Itoa(r.rate) + "/" + strconv.Itoa(r.chunk)
	// The transport calls these hooks from its own goroutines.
	var getConn, gotConn, wrote, firstByte atomic.Int64
	var wasReused atomic.Bool
	if g.tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn: func(string) { getConn.Store(time.Now().UnixNano()) },
			GotConn: func(info httptrace.GotConnInfo) {
				gotConn.Store(time.Now().UnixNano())
				wasReused.Store(info.Reused)
			},
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(time.Now().UnixNano()) },
			GotFirstResponseByte: func() { firstByte.Store(time.Now().UnixNano()) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		g.problem(err)
		return false, false
	}
	if g.tr != nil {
		req.Header.Set(requestIDHeader, strconv.FormatInt(id, 10))
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.problem(err)
		return false, false
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err == nil {
		err = checkChunk(g.plan.sizes, r, resp.StatusCode, n)
	}
	if err != nil {
		g.problem(err)
		return false, false
	}
	if g.tr != nil {
		at := func(ns *atomic.Int64) time.Time { return time.Unix(0, ns.Load()) }
		root := g.tr.add("http.request", id, -1, from, done)
		g.tr.add("http.client.queue", id, root, at(&getConn), at(&gotConn))
		g.tr.add("http.client.ttfb", id, root, at(&wrote), at(&firstByte))
		g.tr.add("http.client.body", id, root, at(&firstByte), done)
		g.mu.Lock()
		g.reqSpans[id] = root
		g.mu.Unlock()
	}
	return true, wasReused.Load()
}

// checkChunk requires a 200 carrying exactly the manifest's chunk size.
func checkChunk(sizes [][]int64, r chunkReq, status int, n int64) error {
	if status != http.StatusOK {
		return fmt.Errorf("chunk %d/%d: status %d", r.rate, r.chunk, status)
	}
	if r.rate < 0 || r.rate >= len(sizes) || r.chunk < 0 || r.chunk >= len(sizes[r.rate]) {
		return fmt.Errorf("chunk %d/%d: not in the manifest", r.rate, r.chunk)
	}
	if want := sizes[r.rate][r.chunk]; n != want {
		return fmt.Errorf("chunk %d/%d: %d bytes, manifest says %d", r.rate, r.chunk, n, want)
	}
	return nil
}

func (g *generator) problem(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.problems) < 5 {
		g.problems = append(g.problems, err)
	}
}

// capacity searches for the highest offered rate that passes, within d:
// rates grow by half until a rate fails, then bisect between the last pass
// and the first failure. A rate fails only when two steps at it in a row
// miss: a lone miss is more often the machine pausing the generator or
// the origin than the origin's limit.
func (g *generator) capacity(ctx context.Context, d, stepDur time.Duration, account func(stepResult)) float64 {
	deadline := time.Now().Add(d)
	lo, hi := 0.0, 0.0
	rate := originFixedRate
	misses := 0
	for time.Now().Add(stepDur).Before(deadline) {
		res := g.step(ctx, rate, stepDur)
		account(res)
		fmt.Fprintf(os.Stderr, "perfbench: capacity step %.0f/s: p50 %.2f ms, p99 %.2f ms, backlog %d, pass %v\n",
			rate, median(res.fetchMS), quantile(res.fetchMS, 0.99), res.backlog, res.pass())
		// Let connections drain between steps.
		time.Sleep(50 * time.Millisecond)
		if !res.pass() {
			if misses++; misses < 2 {
				continue
			}
		}
		if misses < 2 {
			lo = rate
		} else {
			hi = rate
		}
		misses = 0
		if hi == 0 {
			rate *= 1.5
		} else {
			rate = (lo + hi) / 2
		}
	}
	return lo
}

func runOrigin(ctx context.Context, b *bench) error {
	c, plan, setup, err := setupOrigin(ctx, b, false)
	if err != nil {
		return err
	}
	defer c.stop()
	g := newGenerator(c.url(), plan, nil)
	defer g.close()

	account := func(s stepResult) {
		b.attempted += s.attempted
		b.failed += s.failed
	}
	// Warm the connections and the origin before measuring.
	g.step(ctx, originFixedRate, 300*time.Millisecond)
	fixedDur := b.budget() * 2 / 5
	cpu0, err := c.cpu()
	if err != nil {
		return err
	}
	fixed := g.step(ctx, originFixedRate, fixedDur)
	cpu1, err := c.cpu()
	if err != nil {
		return err
	}
	account(fixed)
	late := quantile(fixed.lateMS, 0.99)
	b.env.GenLateMsP99 = late
	if late > originMaxLateMS {
		return fmt.Errorf("%w: p99 lateness %.2f ms > %.1f ms", errInvalid, late, originMaxLateMS)
	}
	lcpu0, err := c.cpu()
	if err != nil {
		return err
	}
	loaded := g.step(ctx, originLoadRate, b.budget()*3/10)
	lcpu1, err := c.cpu()
	if err != nil {
		return err
	}
	account(loaded)
	perCore := float64(len(loaded.fetchMS)) / (lcpu1 - lcpu0).Seconds()
	capacity := g.capacity(ctx, b.budget()*3/10, 500*time.Millisecond, account)
	for _, p := range g.problems {
		b.check(p)
	}
	ok := int64(len(fixed.fetchMS))
	b.set("setup_s", setup)
	b.set("throughput_per_s", perCore)
	b.set("latency_p50_ms", median(fixed.fetchMS))
	b.set("cpu_us_per_op", float64(cpu1-cpu0)/1e3/float64(ok))
	b.detail("http.capacity_rps", "1/s", capacity)
	b.detail("http.fetch_p50_ms", "ms", median(fixed.fetchMS))
	b.detail("http.fetch_p90_ms", "ms", quantile(fixed.fetchMS, 0.90))
	b.detail("http.fetch_p99_ms", "ms", quantile(fixed.fetchMS, 0.99))
	b.detail("http.rps_per_origin_cpu_s", "1/s", perCore)
	b.detail("http.mean_chunk_kb", "KiB", plan.meanKB())
	b.detail("http.fail_ratio", "ratio", float64(b.failed)/float64(b.attempted))
	b.detail("http.fixed_rate_rps", "1/s", originFixedRate)
	b.detail("http.load_rate_rps", "1/s", originLoadRate)
	b.detail("http.p99_limit_ms", "ms", originLimitMS)
	b.detail("http.fixed_rate_requests", "count", float64(ok))
	return nil
}

// tracedOrigin measures the request path's layers. A third of the time
// goes to an untraced fixed-rate stretch against dashserver (the overhead
// baseline and the per-request CPU of both processes); the rest to a
// traced stretch at the same rate against a benchmark-built origin that
// serves the same title and times dash.Server.ServeHTTP.
func tracedOrigin(ctx context.Context, b *bench) error {
	c, plan, _, err := setupOrigin(ctx, b, false)
	if err != nil {
		return err
	}
	g := newGenerator(c.url(), plan, nil)
	g.step(ctx, originFixedRate, 300*time.Millisecond)
	ocpu0, err := c.cpu()
	if err != nil {
		c.stop()
		return err
	}
	gcpu0 := cpuSelf()
	base := g.step(ctx, originFixedRate, b.budget()/3)
	gcpu1 := cpuSelf()
	ocpu1, err := c.cpu()
	g.close()
	if stopErr := c.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	b.attempted += base.attempted
	b.failed += base.failed
	okBase := float64(len(base.fetchMS))
	b.set("origin.cpu_us_per_req", float64(ocpu1-ocpu0)/1e3/okBase)
	b.set("gen.cpu_us_per_req", float64(gcpu1-gcpu0)/1e3/okBase)

	tc, tplan, _, err := setupOrigin(ctx, b, true)
	if err != nil {
		return err
	}
	if !bytes.Equal(tplan.manifest, plan.manifest) {
		b.check(fmt.Errorf("origin_http: the traced origin serves a different manifest"))
	}
	tg := newGenerator(tc.url(), tplan, b.tr)
	tg.step(ctx, originFixedRate, 300*time.Millisecond)
	b.tr.reset() // drop the warm-up's spans
	tg.reqSpans = map[int64]int{}
	traced := tg.step(ctx, originFixedRate, b.budget()*2/3)
	tg.close()
	if err := tc.stop(); err != nil {
		return fmt.Errorf("traced origin exit: %w", err)
	}
	b.attempted += traced.attempted
	b.failed += traced.failed
	for _, p := range append(g.problems, tg.problems...) {
		b.check(p)
	}
	serve, err := readSpans(filepath.Join(b.work, "origin-spans.json"))
	if err != nil {
		return fmt.Errorf("origin spans: %w", err)
	}
	kept := serve[:0] // the warm-up's requests were dropped above
	for _, s := range serve {
		if _, ok := tg.reqSpans[s.ID]; ok {
			kept = append(kept, s)
		}
	}
	b.tr.merge(kept)
	b.tr.link("dash.serve", tg.reqSpans)

	late := quantile(append(base.lateMS, traced.lateMS...), 0.99)
	b.env.GenLateMsP99 = late
	if late > originMaxLateMS {
		return fmt.Errorf("%w: p99 lateness %.2f ms > %.1f ms", errInvalid, late, originMaxLateMS)
	}
	ls := b.tr.layers()
	p50Base, p50Traced := median(base.fetchMS), median(traced.fetchMS)
	b.set("trace.overhead_pct", (p50Traced-p50Base)/p50Base*100)
	b.set("gen.late_ms_p99", late)
	b.set("http.client.queue_us_p99", ls["http.client.queue"].quantileNS(0.99)/1e3)
	b.set("http.client.conn_reuse_ratio", float64(traced.reused)/float64(len(traced.fetchMS)))
	b.set("http.client.ttfb_us_p50", ls["http.client.ttfb"].quantileNS(0.5)/1e3)
	b.set("http.client.ttfb_us_p99", ls["http.client.ttfb"].quantileNS(0.99)/1e3)
	b.set("http.client.body_us_p50", ls["http.client.body"].quantileNS(0.5)/1e3)
	b.set("http.client.body_us_p99", ls["http.client.body"].quantileNS(0.99)/1e3)
	b.set("dash.serve_us_p50", ls["dash.serve"].quantileNS(0.5)/1e3)
	b.set("dash.serve_us_p99", ls["dash.serve"].quantileNS(0.99)/1e3)
	b.detail("http.fetch_p50_ms.untraced", "ms", p50Base)
	b.detail("http.fetch_p50_ms.traced", "ms", p50Traced)
	return nil
}
