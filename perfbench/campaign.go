package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/batch"
	"bba/internal/campaign"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/units"
)

// The campaign workload: a virtual-time paired campaign of the paper's six
// standard arms under the standard fault weather, run through
// campaign.RunContext. It exercises the session engine (abtest, trace,
// faults, abr, player, buffer, batch) and the campaign fold with no
// sockets and no disk. One run repeats the same campaign until its time is
// up; each repetition is one operation.
const (
	// campaignSessions paired draws × 6 arms is about 1.4 s of work at 2
	// workers, so a 20 s run repeats it about 14 times; the draws are
	// enough that the work per session differs by a few percent between
	// seeds.
	campaignSessions = 4096
	// campaignShardSize gives 32 shards: 16 per worker, so neither idles
	// while the other finishes its last shard for long.
	campaignShardSize = 128
	campaignWorkers   = 2
	// campaignSampleShards is how many shards the check recomputes at 1
	// worker.
	campaignSampleShards = 3
)

// defaultSeed is the seed whose campaign report digest is recorded.
const defaultSeed = 1

// defaultCampaignDigest is the SHA-256 of the default seed's report.
const defaultCampaignDigest = "8c8ddfec86700f56ccee2122c9b5d925f4a9b6f1baec40e98ddc38405fb5996f"

// campaignConfig is the workload's campaign. The execution engine is chosen
// here and nowhere else.
func campaignConfig(seed int64) campaign.Config {
	fc := faults.DefaultScheduleConfig()
	return campaign.Config{
		Name:        "perfbench",
		Seed:        seed,
		FaultSeed:   seed + 2014,
		Sessions:    campaignSessions,
		ShardSize:   campaignShardSize,
		Faults:      &fc,
		Parallelism: campaignWorkers,
		Batch:       true,
	}
}

// campaignRep is one measured repetition of the campaign.
type campaignRep struct {
	report  []byte
	elapsed time.Duration
	cpu     time.Duration
	allocKB float64
	stats   campaign.RunStats
}

// runCampaignRep runs the campaign once through campaign.RunContext.
func runCampaignRep(ctx context.Context, cfg campaign.Config) (campaignRep, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSelf()
	t0 := time.Now()
	out, err := campaign.RunContext(ctx, cfg)
	if err != nil {
		return campaignRep{}, err
	}
	var buf bytes.Buffer
	if err := out.Report.WriteJSON(&buf); err != nil {
		return campaignRep{}, err
	}
	rep := campaignRep{report: buf.Bytes(), elapsed: time.Since(t0), cpu: cpuSelf() - cpu0, stats: out.Stats}
	runtime.ReadMemStats(&m1)
	rep.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(out.Stats.PlayerSessions)
	return rep, nil
}

// campaignSetup builds the campaign's only fixture, the check's
// reference: campaignSampleShards shards drawn from seed, run at 1 worker
// through campaign.NewShardRunner. It returns the checker holding them and
// the time setup took.
func campaignSetup(ctx context.Context, seed int64) (*campaignChecker, time.Duration, error) {
	t0 := time.Now()
	cfg := campaignConfig(seed)
	cfg.Parallelism = 1
	runner, err := campaign.NewShardRunner(cfg)
	if err != nil {
		return nil, 0, err
	}
	c := &campaignChecker{seed: seed, refs: map[int][]byte{}, shards: map[int][]byte{}}
	n := runner.Identity().Shards()
	rng := rand.New(rand.NewSource(seed))
	for len(c.refs) < min(campaignSampleShards, n) {
		s := rng.Intn(n)
		if c.refs[s] != nil {
			continue
		}
		accums, err := runner.RunShard(ctx, s)
		if err != nil {
			return nil, 0, err
		}
		if c.refs[s], err = json.Marshal(accums); err != nil {
			return nil, 0, err
		}
	}
	return c, time.Since(t0), nil
}

// campaignChecker holds what the report checks compare against.
type campaignChecker struct {
	seed    int64
	refs    map[int][]byte // sampled shards' accumulators at 1 worker
	mu      sync.Mutex
	shards  map[int][]byte // the same shards as the run computed them
	first   []byte         // the first repetition's report
	reports int
}

// capture is a campaign.Config.OnShard hook keeping the sampled shards.
func (c *campaignChecker) capture(s int, accums []*campaign.GroupAccum) error {
	if c.refs[s] == nil {
		return nil
	}
	j, err := json.Marshal(accums)
	c.mu.Lock()
	c.shards[s] = j
	c.mu.Unlock()
	return err
}

// checkReport requires every repetition's report to match the first, and
// the first to match the recorded digest for the default seed.
func (c *campaignChecker) checkReport(report []byte) error {
	c.reports++
	if c.first == nil {
		c.first = report
		if c.seed == defaultSeed {
			if d := digest(report); d != defaultCampaignDigest {
				return fmt.Errorf("campaign: seed %d report digest %s, recorded %s", c.seed, d, defaultCampaignDigest)
			}
		}
		return nil
	}
	if !bytes.Equal(report, c.first) {
		return fmt.Errorf("campaign: repetition %d report differs from the first", c.reports)
	}
	return nil
}

// checkShards requires the run's sampled shards to match their 1-worker
// references byte for byte.
func (c *campaignChecker) checkShards() error {
	for s, want := range c.refs {
		got, ok := c.shards[s]
		if !ok {
			return fmt.Errorf("campaign: sampled shard %d was never captured", s)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("campaign: shard %d differs from its 1-worker recomputation", s)
		}
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runCampaignReps repeats the campaign until d has passed, after one
// warm-up repetition that also captures the sampled shards.
func runCampaignReps(ctx context.Context, b *bench, chk *campaignChecker, d time.Duration) ([]campaignRep, error) {
	cfg := campaignConfig(b.seed)
	cfg.OnShard = chk.capture
	warm, err := runCampaignRep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	b.check(chk.checkReport(warm.report))
	deadline := time.Now().Add(d)
	var reps []campaignRep
	for len(reps) < 2 || time.Now().Before(deadline) {
		rep, err := runCampaignRep(ctx, campaignConfig(b.seed))
		if err != nil {
			return nil, err
		}
		b.check(chk.checkReport(rep.report))
		b.attempted += rep.stats.PlayerSessions
		reps = append(reps, rep)
	}
	return reps, nil
}

func runCampaign(ctx context.Context, b *bench) error {
	var setups []float64
	var chk *campaignChecker
	for i := 0; i < setupReps; i++ {
		c, d, err := campaignSetup(ctx, b.seed)
		if err != nil {
			return err
		}
		chk = c
		setups = append(setups, d.Seconds())
	}
	reps, err := runCampaignReps(ctx, b, chk, b.budget())
	if err != nil {
		return err
	}
	b.check(chk.checkShards())

	var rate, lat, cpu, alloc []float64
	for _, r := range reps {
		rate = append(rate, float64(r.stats.PlayerSessions)/r.elapsed.Seconds())
		lat = append(lat, float64(r.elapsed)/1e6)
		cpu = append(cpu, float64(r.cpu)/1e3/float64(r.stats.PlayerSessions))
		alloc = append(alloc, r.allocKB)
	}
	b.set("setup_s", median(setups))
	b.set("throughput_per_s", median(rate))
	b.set("latency_p50_ms", median(lat))
	b.set("cpu_us_per_op", median(cpu))
	b.detail("campaign.sessions_per_s", "1/s", median(rate))
	b.detail("campaign.alloc_kb_per_session", "KiB", median(alloc))
	b.detail("campaign.report_latency_p90_ms", "ms", quantile(lat, 0.90))
	b.detail("campaign.repetitions", "count", float64(len(reps)))
	b.detail("campaign.player_sessions_per_rep", "count", float64(reps[0].stats.PlayerSessions))
	return nil
}

// tracedCampaign measures the campaign's layers. It first repeats the
// untraced campaign for a third of the time, for the tracing overhead and
// the program's own counters, then replays the same campaign through the
// batch kernel from this package with a span around every layer call,
// and requires that replay's report to match the untraced one.
func tracedCampaign(ctx context.Context, b *bench) error {
	chk, _, err := campaignSetup(ctx, b.seed)
	if err != nil {
		return err
	}
	reps, err := runCampaignReps(ctx, b, chk, b.budget()/3)
	if err != nil {
		return err
	}
	b.check(chk.checkShards())
	var rate, alloc []float64
	peak := 0
	for _, r := range reps {
		rate = append(rate, float64(r.stats.PlayerSessions)/r.elapsed.Seconds())
		alloc = append(alloc, r.allocKB)
		peak = max(peak, r.stats.PeakPending)
	}
	untraced := median(rate)
	st := reps[0].stats
	b.set("campaign.peak_pending_shards", float64(peak))
	b.set("campaign.alloc_kb_per_session", median(alloc))
	b.set("player.retries", float64(st.Retries))
	b.set("player.degrades", float64(st.Degradations))
	b.set("faults.injected", float64(st.Faults))

	tc, err := newTracedCampaign(b.seed, b.tr)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(b.budget() * 2 / 3)
	var tracedRate []float64
	var sessions int64
	for len(tracedRate) < 1 || time.Now().Before(deadline) {
		t0 := time.Now()
		report, err := tc.run(ctx)
		if err != nil {
			return err
		}
		tracedRate = append(tracedRate, float64(tc.playerSessions())/time.Since(t0).Seconds())
		sessions += tc.playerSessions()
		b.check(chk.checkReport(report))
	}
	b.attempted += sessions

	traced := median(tracedRate)
	b.set("trace.overhead_pct", (untraced-traced)/untraced*100)
	ls := b.tr.layers()
	draws := ls["abtest.draw"].calls
	b.set("abtest.draw_us", ls["abtest.draw"].perCall()/1e3)
	b.set("abtest.env_us", ls["abtest.env"].perCall()/1e3)
	b.set("abr.decide_ns", ls["abr.decide"].perCall())
	b.set("abr.decisions", float64(ls["abr.decide"].calls))
	b.set("batch.step_self_us", ls["batch.run_shard"].selfPer(draws*int64(len(tc.groups)))/1e3)
	b.set("campaign.fold_us", ls["campaign.fold"].perCall()/1e3)
	b.set("campaign.report_ms", ls["campaign.report"].perCall()/1e6)
	b.detail("campaign.sessions_per_s.untraced", "1/s", untraced)
	b.detail("campaign.sessions_per_s.traced", "1/s", traced)
	b.detail("campaign.session_fold_us", "us", ls["campaign.session_fold"].perCall()/1e3)
	return nil
}

// tracedCampaignRun replays campaignConfig's campaign with spans around each
// layer call: the draw (abtest.DrawUser plus the title pick), every ABR
// decision, the per-draw accumulator fold, the kernel's RunShard, the
// per-shard checkpoint fold and the final report. The kernel builds each
// draw's session environment internally, so abtest.NewSessionEnv is timed
// by calling it again on the same draw outside the kernel; those spans are
// children of the RunShard span they stand in for.
//
// The replay derives each draw exactly as package campaign does; the report
// check proves it, since any difference changes the report bytes.
type tracedCampaignRun struct {
	cfg     campaign.Config
	id      campaign.Identity
	catalog *media.Catalog
	groups  []abtest.Group
	tr      *tracer
	workers []*tracedWorker
}

// tracedWorker is one worker goroutine's kernel and decision counters.
type tracedWorker struct {
	runner    *batch.Runner
	decisions int64
	decideNS  int64
}

func newTracedCampaign(seed int64, tr *tracer) (*tracedCampaignRun, error) {
	cfg := campaignConfig(seed)
	id := cfg.Identity()
	catalog, err := media.NewCatalog(id.CatalogSize, media.DefaultLadder(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	tc := &tracedCampaignRun{cfg: cfg, id: id, catalog: catalog, tr: tr}
	for w := 0; w < campaignWorkers; w++ {
		tw := &tracedWorker{}
		var groups []abtest.Group
		for _, name := range id.Groups {
			f, ok := abr.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("campaign: unknown algorithm %q", name)
			}
			groups = append(groups, abtest.FactoryGroup(name, timedFactory(f, tw)))
		}
		tw.runner = batch.NewRunner(batch.Config{Groups: groups, Faults: cfg.Faults})
		tc.workers = append(tc.workers, tw)
		tc.groups = groups
	}
	return tc, nil
}

func (tc *tracedCampaignRun) playerSessions() int64 {
	return int64(tc.id.Sessions) * int64(len(tc.groups))
}

// run executes the whole campaign once and returns its report.
func (tc *tracedCampaignRun) run(ctx context.Context) ([]byte, error) {
	cp := campaign.NewCheckpoint(tc.id)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(tc.workers))
	for w, tw := range tc.workers {
		wg.Add(1)
		go func(w int, tw *tracedWorker) {
			defer wg.Done()
			for {
				s := int(next.Add(1) - 1)
				if s >= tc.id.Shards() {
					return
				}
				accums, err := tc.runShard(ctx, tw, s)
				if err != nil {
					errs[w] = err
					return
				}
				mu.Lock()
				t0 := time.Now()
				err = cp.Record(s, accums)
				tc.tr.add("campaign.fold", int64(s), -1, t0, time.Now())
				mu.Unlock()
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w, tw)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	rep, err := campaign.FinalReport(cp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	tc.tr.add("campaign.report", 0, -1, t0, time.Now())
	return buf.Bytes(), nil
}

// runShard runs one shard through the worker's kernel.
func (tc *tracedCampaignRun) runShard(ctx context.Context, tw *tracedWorker, s int) ([]*campaign.GroupAccum, error) {
	n := min(tc.id.ShardSize, tc.id.Sessions-s*tc.id.ShardSize)
	accums := campaign.NewGroupAccums(tc.id.Groups, tc.id.SketchSize)
	type drawn struct {
		d          batch.Draw
		start, end time.Time
	}
	draws := make([]drawn, 0, n)
	type folded struct{ start, end time.Time }
	folds := make([]folded, 0, n)
	dec0, ns0 := tw.decisions, tw.decideNS

	t0 := time.Now()
	err := tw.runner.RunShard(ctx, n,
		func(off int) (batch.Draw, error) {
			ds := time.Now()
			u, video, fseed := tc.draw(s, off)
			d := batch.Draw{User: u, Video: video, Fseed: fseed}
			draws = append(draws, drawn{d, ds, time.Now()})
			return d, nil
		},
		func(off int, ms []metrics.Session) error {
			fs := time.Now()
			global := int64(s)*int64(tc.id.ShardSize) + int64(off)
			for gi := range ms {
				if err := accums[gi].AddSession(uint64(global)<<8|uint64(gi&0xFF), ms[gi]); err != nil {
					return err
				}
			}
			folds = append(folds, folded{fs, time.Now()})
			return nil
		})
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	parent := tc.tr.add("batch.run_shard", int64(s), -1, t0, t1)
	base := int64(s) * int64(tc.id.ShardSize)
	for off, d := range draws {
		tc.tr.add("abtest.draw", base+int64(off), parent, d.start, d.end)
	}
	for off, f := range folds {
		tc.tr.add("campaign.session_fold", base+int64(off), parent, f.start, f.end)
	}
	tc.tr.addAgg("abr.decide", int64(s), parent, t0, t1, tw.decisions-dec0, time.Duration(tw.decideNS-ns0))
	for off, d := range draws {
		es := time.Now()
		if _, err := abtest.NewSessionEnv(d.d.User, d.d.Video, tc.cfg.Faults, d.d.Fseed); err != nil {
			return nil, err
		}
		tc.tr.add("abtest.env", base+int64(off), parent, es, time.Now())
	}
	return accums, nil
}

// draw derives paired draw (s, off) as package campaign keys it.
func (tc *tracedCampaignRun) draw(s, off int) (abtest.User, *media.Video, int64) {
	global := int64(s)*int64(tc.id.ShardSize) + int64(off)
	window := int(global % int64(metrics.WindowsPerDay))
	day := int(global / int64(metrics.WindowsPerDay) % int64(tc.id.Days))
	rng := rand.New(rand.NewSource(int64(shardMix(uint64(tc.cfg.Seed), uint64(s), uint64(off), 0xCA3A16))))
	u := abtest.DrawUser(tc.cfg.Population, window, day, rng)
	fseed := int64(shardMix(uint64(tc.cfg.FaultSeed), uint64(s), uint64(off), 0xCA3A16FA5E1))
	return u, u.Pick(tc.catalog), fseed
}

func shardMix(vs ...uint64) uint64 {
	x := vs[0]
	for _, v := range vs[1:] {
		x += (v + 1) * 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

// timedFactory wraps each algorithm f builds so its decisions are counted
// and timed into w.
func timedFactory(f abr.Factory, w *tracedWorker) abr.Factory {
	return func() abr.Algorithm { return &timedAlgorithm{inner: f(), w: w} }
}

// timedAlgorithm times Next and forwards the optional interfaces a
// campaign probes for (abtest.FactoryGroup seeds CapacitySeeded algorithms;
// the batch kernel hands PlanConsumers its plan cache), so decisions are
// unchanged; the report check proves it.
type timedAlgorithm struct {
	inner abr.Algorithm
	w     *tracedWorker
}

func (a *timedAlgorithm) Name() string { return a.inner.Name() }

func (a *timedAlgorithm) Next(st abr.State, s abr.Stream) int {
	t0 := time.Now()
	i := a.inner.Next(st, s)
	a.w.decideNS += int64(time.Since(t0))
	a.w.decisions++
	return i
}

func (a *timedAlgorithm) SeedCapacity(c units.BitRate) {
	if cs, ok := a.inner.(abr.CapacitySeeded); ok {
		cs.SeedCapacity(c)
	}
}

func (a *timedAlgorithm) UsePlans(p abr.PlanSource) {
	if pc, ok := a.inner.(abr.PlanConsumer); ok {
		pc.UsePlans(p)
	}
}

// cpuSelf returns this process's user plus system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
