package player

import (
	"errors"
	"time"

	"bba/internal/abr"
	"bba/internal/buffer"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// Session is the playback engine in resumable, reusable form: the complete
// state of one streaming session between chunk requests. The scalar Run
// loop, the batch kernel and the HTTP client (dash.Stream, over a Link)
// advance the very same Step function, which is what makes batch-mode
// campaign reports byte-identical to scalar ones and keeps real-socket
// sessions on the simulator's playback model — there is exactly one
// implementation of the per-chunk arithmetic.
//
// A zero Session is ready for Start. Starting again after a session ends
// reuses every retained allocation — the Result, its record storage, the
// buffer and the trace cursor — so a long-lived Session streaming many
// sessions back to back allocates nothing in steady state beyond what the
// configured algorithm itself allocates. The Result returned by Result is
// owned by the Session and overwritten by the next Start; callers that
// keep it across sessions must copy what they need first.
//
// A Session is not safe for concurrent use; batch lanes each own one.
type Session struct {
	// Per-session configuration, captured by Start.
	alg    abr.Algorithm
	s      abr.Stream
	v      time.Duration
	ladder media.Ladder
	bufMax time.Duration
	watch  time.Duration
	skip   bool
	n      int

	// Reused storage: buffer, cursor and result live inside the Session
	// so per-lane state can sit in flat arrays with no per-session
	// allocation.
	buf buffer.Buffer
	cur trace.Cursor
	res *Result

	// link, when non-nil, replaces the virtual link (the trace cursor
	// plus the fault loop) for downloads and ON-OFF idles.
	link Link

	// The session clock and the per-chunk loop state.
	k         int
	now       time.Duration
	prevIdx   int
	lastTP    units.BitRate
	lastDl    time.Duration
	lastBytes int64

	seeks      []Seek
	justSought bool

	// Telemetry state; only touched when obs != nil, keeping the nil
	// path identical to the uninstrumented engine.
	obs           telemetry.Observer
	stallBase     time.Duration // buf.StallTime() when the open rebuffer began
	lastReservoir time.Duration
	reporter      abr.ReservoirReporter

	// Fault state; only consulted when inj != nil.
	inj FaultInjector
	rp  RetryPolicy

	finished bool
}

// Link carries a session's chunks in place of the virtual link, which is
// the capacity trace plus, when an Injector is set, the fault loop.
// dash.Stream implements it over real HTTP. Either way the session clock
// advances by the ON-OFF idles and the returned download times.
type Link interface {
	// Fetch downloads chunk k at session-ladder index idx, issued at
	// session time now, and returns the bytes received and the download
	// time. An error wrapping ErrOutage ends the session in an outage
	// rebuffer, marked Incomplete; any other error aborts it.
	Fetch(now time.Duration, k, idx int) (int64, time.Duration, error)
	// Idle lets an ON-OFF pause of d pass; an error aborts the session.
	Idle(d time.Duration) error
}

// ErrOutage is what a Link's Fetch wraps when it gives up on a chunk.
var ErrOutage = errors.New("player: link outage")

// Start (re)initializes the session from cfg. A Session that already ran
// keeps its arena storage; only the logical state resets.
func (ss *Session) Start(cfg Config) error { return ss.start(cfg, nil) }

// start is Start over link; a nil link means the virtual one.
func (ss *Session) start(cfg Config, link Link) error {
	if cfg.Algorithm == nil {
		return errors.New("player: nil algorithm")
	}
	if cfg.Trace == nil && link == nil {
		return errors.New("player: nil trace")
	}
	bufMax := cfg.BufferMax
	if bufMax <= 0 {
		bufMax = buffer.DefaultMax
	}
	ss.alg = cfg.Algorithm
	ss.s = cfg.Stream
	ss.v = ss.s.ChunkDuration()
	ss.ladder = ss.s.Ladder()
	ss.bufMax = bufMax
	ss.watch = cfg.WatchLimit
	ss.skip = cfg.SkipChunkRecords
	ss.n = ss.s.NumChunks()
	if ss.skip && len(ss.ladder) > 256 {
		return errors.New("player: SkipChunkRecords supports ladders of at most 256 rungs")
	}

	ss.buf.Reset(bufMax)
	// A stalled session refills through add-only steps of v, and the
	// ON-OFF loop stops adding above bufMax-v — so a resume threshold
	// past that point can never be reached: the session would sit stalled
	// forever, filling the buffer until AddChunk overflows. Clamp the
	// default so every stall can end. (With the default 240s buffer this
	// is a no-op; it matters for small soak/test buffers.)
	if resume := bufMax - ss.v; resume < buffer.DefaultResume {
		ss.buf.SetResume(resume)
	}
	ss.link = link
	if link == nil {
		// The session clock only moves forward, so one trace cursor serves
		// the whole session: each download resumes the segment walk where
		// the last one finished instead of re-searching the trace.
		ss.cur.Bind(cfg.Trace)
	}

	if ss.res == nil {
		ss.res = &Result{}
	}
	ss.res.reset(ss.alg.Name())
	if hint := chunkCapacity(ss.s, ss.v, cfg.WatchLimit); ss.skip {
		if cap(ss.res.rateIdx) < hint {
			ss.res.rateIdx = make([]uint8, 0, hint)
		}
		for _, r := range ss.ladder {
			ss.res.ladderKbps = append(ss.res.ladderKbps, r.Kilobits())
		}
	} else if cap(ss.res.Chunks) < hint {
		ss.res.Chunks = make([]ChunkRecord, 0, hint)
	}

	ss.k = 0
	ss.now = 0
	ss.prevIdx = -1
	ss.lastTP = 0
	ss.lastDl = 0
	ss.lastBytes = 0
	ss.seeks = cfg.Seeks
	ss.justSought = false
	ss.finished = false

	ss.obs = cfg.Observer
	ss.stallBase = 0
	ss.lastReservoir = -1
	ss.reporter = nil
	if ss.obs != nil {
		ss.reporter, _ = ss.alg.(abr.ReservoirReporter)
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.SessionStart, Chunk: -1, RateIndex: -1,
			PrevRateIndex: -1, Label: ss.res.Algorithm,
		})
	}

	ss.inj = cfg.Injector
	if ss.inj != nil {
		ss.rp = cfg.Retry.withDefaults()
	}
	return nil
}

// Done reports whether the session has finished (or failed).
func (ss *Session) Done() bool { return ss.finished }

// Result returns the session's outcome. It is complete once Step has
// reported done; the Session retains ownership and the next Start
// overwrites it.
func (ss *Session) Result() *Result { return ss.res }

// faultAdvance advances the session clock through a failed attempt or
// backoff: the buffer keeps draining, and a drain-to-empty is a real
// rebuffer with the same telemetry as one during a download.
func (ss *Session) faultAdvance(d time.Duration, chunk int) {
	if d <= 0 {
		return
	}
	preLevel, preStall, preRebuf := ss.buf.Level(), ss.buf.StallTime(), ss.buf.Rebuffers()
	ss.buf.Advance(d)
	ss.now += d
	if ss.obs != nil && ss.buf.Rebuffers() > preRebuf {
		ss.stallBase = preStall
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.RebufferStart, At: ss.now - d + preLevel,
			Chunk: chunk, RateIndex: -1, PrevRateIndex: -1,
		})
	}
}

// Step advances the session by one chunk request — one iteration of the
// engine loop. It returns done == true once the session has played out
// (Result is then complete), and a non-nil error on engine failure, after
// which the session is terminal.
func (ss *Session) Step() (bool, error) {
	if ss.finished {
		return true, nil
	}
	k := ss.k
	// Execute a pending seek once enough video has been delivered.
	if len(ss.seeks) > 0 && ss.buf.Played() >= ss.seeks[0].AfterPlayed {
		target := ss.seeks[0].ToChunk
		ss.seeks = ss.seeks[1:]
		if target >= 0 && target < ss.n {
			ss.buf.Flush()
			if sa, ok := ss.alg.(abr.SeekAware); ok {
				sa.Seeked()
			}
			ss.res.Seeks = append(ss.res.Seeks, SeekRecord{At: ss.now, ToChunk: target})
			k = target
			ss.justSought = true
			if ss.obs != nil {
				ss.obs.OnEvent(telemetry.Event{
					Kind: telemetry.Seek, At: ss.now, Chunk: target,
					RateIndex: -1, PrevRateIndex: -1, Played: ss.buf.Played(),
				})
			}
		}
	}
	// Stop requesting once the buffer already holds everything the
	// viewer will watch — unless a seek is still pending, which will
	// discard that buffer.
	if len(ss.seeks) == 0 && ss.watch > 0 && ss.buf.Played()+ss.buf.Level() >= ss.watch {
		ss.finish()
		return true, nil
	}

	// ON-OFF: wait for space before the next request.
	if !ss.buf.HasSpaceFor(ss.v) {
		wait := ss.buf.TimeUntilSpaceFor(ss.v)
		if ss.link != nil {
			if err := ss.link.Idle(wait); err != nil {
				ss.finished = true
				return true, err
			}
		}
		ss.buf.Advance(wait)
		ss.now += wait
	}

	st := abr.State{
		Now:            ss.now,
		Buffer:         ss.buf.Level(),
		BufferMax:      ss.bufMax,
		PrevIndex:      ss.prevIdx,
		NextChunk:      k,
		LastThroughput: ss.lastTP,
		LastDownload:   ss.lastDl,
		LastChunkBytes: ss.lastBytes,
	}
	idx := ss.ladder.Clamp(ss.alg.Next(st, ss.s))
	bytes := ss.s.ChunkSize(idx, k)
	if ss.obs != nil {
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.BufferSample, At: ss.now, Chunk: k,
			RateIndex: -1, PrevRateIndex: -1,
			Buffer: ss.buf.Level(), Played: ss.buf.Played(),
		})
		if ss.reporter != nil {
			if r, p, ok := ss.reporter.LastReservoir(); ok && r != ss.lastReservoir {
				ss.lastReservoir = r
				ss.obs.OnEvent(telemetry.Event{
					Kind: telemetry.ReservoirUpdate, At: ss.now, Chunk: k,
					RateIndex: -1, PrevRateIndex: -1,
					Reservoir: r, Protection: p, Buffer: ss.buf.Level(),
				})
			}
		}
		if ss.prevIdx >= 0 && idx != ss.prevIdx {
			ss.obs.OnEvent(telemetry.Event{
				Kind: telemetry.RateSwitch, At: ss.now, Chunk: k,
				RateIndex: idx, PrevRateIndex: ss.prevIdx,
				Rate: ss.ladder[idx], Buffer: ss.buf.Level(),
			})
		}
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.ChunkRequest, At: ss.now, Chunk: k,
			RateIndex: idx, PrevRateIndex: -1,
			Rate: ss.ladder[idx], Bytes: bytes, Buffer: ss.buf.Level(),
		})
	}

	idx, bytes, dl, err := ss.fetch(k, idx, bytes)
	if err != nil {
		if !errors.Is(err, ErrOutage) {
			ss.finished = true
			return true, err
		}
		// Permanent outage: playback drains whatever is buffered
		// and freezes forever.
		ss.res.Incomplete = true
		ss.res.Rebuffers++
		if ss.obs != nil {
			ss.obs.OnEvent(telemetry.Event{
				Kind: telemetry.RebufferStart, At: ss.now + ss.buf.Level(),
				Chunk: k, RateIndex: -1, PrevRateIndex: -1,
				Label: "outage",
			})
		}
		ss.finish()
		return true, nil
	}

	var preLevel, preStall time.Duration
	var preRebuf int
	if ss.obs != nil {
		preLevel, preStall, preRebuf = ss.buf.Level(), ss.buf.StallTime(), ss.buf.Rebuffers()
	}
	ss.buf.Advance(dl)
	ss.now += dl
	if ss.obs != nil && ss.buf.Rebuffers() > preRebuf {
		// The stall began the instant the buffer drained mid-download.
		ss.stallBase = preStall
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.RebufferStart, At: ss.now - dl + preLevel,
			Chunk: k, RateIndex: -1, PrevRateIndex: -1,
		})
	}
	if k == 0 {
		ss.res.JoinDelay = ss.now
	}
	if ss.justSought {
		ss.res.Seeks[len(ss.res.Seeks)-1].JoinDelay = dl
		ss.justSought = false
	}
	stalled := ss.buf.Started() && !ss.buf.Playing()
	// Overflow is impossible here because of the ON-OFF wait; an
	// error would indicate an engine bug, so surface it loudly.
	if err := ss.buf.AddChunk(ss.v); err != nil {
		ss.finished = true
		return true, err
	}

	if ss.prevIdx >= 0 && idx != ss.prevIdx {
		ss.res.Switches++
	}
	ss.lastTP = units.Throughput(bytes, dl)
	ss.lastDl = dl
	ss.lastBytes = bytes
	if ss.skip {
		// Compact recording: the rate index alone reproduces every
		// rate-derived metric; the Start-time boundary counters stand in
		// for the per-chunk Start fields (chunk starts are monotone).
		start := ss.now - dl
		if start < time.Minute {
			ss.res.startupChunks++
		}
		if start < 2*time.Minute {
			ss.res.steadySkip++
		}
		ss.res.rateIdx = append(ss.res.rateIdx, uint8(idx))
	} else {
		ss.res.Chunks = append(ss.res.Chunks, ChunkRecord{
			Index:       k,
			RateIndex:   idx,
			Rate:        ss.ladder[idx],
			Bytes:       bytes,
			Start:       ss.now - dl,
			Download:    dl,
			Throughput:  ss.lastTP,
			BufferAfter: ss.buf.Level(),
		})
	}
	ss.prevIdx = idx
	if ss.obs != nil {
		if stalled && ss.buf.Playing() {
			ss.obs.OnEvent(telemetry.Event{
				Kind: telemetry.RebufferEnd, At: ss.now, Chunk: k,
				RateIndex: -1, PrevRateIndex: -1,
				Duration: ss.buf.StallTime() - ss.stallBase, Buffer: ss.buf.Level(),
			})
		}
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.ChunkComplete, At: ss.now, Chunk: k,
			RateIndex: idx, PrevRateIndex: -1,
			Rate: ss.ladder[idx], Bytes: bytes, Duration: dl,
			Throughput: ss.lastTP, Buffer: ss.buf.Level(), Played: ss.buf.Played(),
		})
	}

	ss.k = k + 1
	if ss.k >= ss.n {
		ss.finish()
		return true, nil
	}
	return false, nil
}

// fetch downloads chunk k over the session's link and returns the rate
// index it was fetched at (the fault loop may degrade it), its bytes and
// the download time.
func (ss *Session) fetch(k, idx int, bytes int64) (int, int64, time.Duration, error) {
	if ss.link != nil {
		n, dl, err := ss.link.Fetch(ss.now, k, idx)
		return idx, n, dl, err
	}
	if ss.inj != nil {
		idx, bytes = ss.faultLoop(k, idx, bytes)
	}
	dl, ok := ss.cur.DownloadTime(ss.now, bytes)
	switch {
	case ok:
		return idx, bytes, dl, nil
	case k == 0:
		return idx, bytes, 0, ErrNoProgress
	default:
		return idx, bytes, 0, ErrOutage
	}
}

// faultLoop is the resilience loop: each attempt pays any active latency
// spike, may fail to an injected fault (costing its virtual delay plus a
// deterministic backoff), and after Budget failures at the chosen rate the
// session degrades to the lowest rung with a shrunken request rather than
// aborting. The loop always terminates: every failed attempt advances the
// clock by at least the backoff, so a finite episode is always outlived.
func (ss *Session) faultLoop(k, idx int, bytes int64) (int, int64) {
	attempt, budgetUsed := 0, 0
	degraded := false
	for {
		ss.faultAdvance(ss.inj.RequestLatency(ss.now), k)
		label, cost, failed := ss.inj.ChunkFault(ss.now, k, attempt)
		if !failed {
			return idx, bytes
		}
		ss.res.Faults++
		if ss.obs != nil {
			ss.obs.OnEvent(telemetry.Event{
				Kind: telemetry.FaultInject, At: ss.now, Chunk: k,
				RateIndex: idx, PrevRateIndex: -1,
				Duration: cost, Label: label,
			})
		}
		attempt++
		budgetUsed++
		backoff := faults.Backoff(ss.rp.BackoffBase, ss.rp.BackoffCap, uint64(ss.rp.Seed), k, attempt)
		ss.faultAdvance(cost+backoff, k)
		ss.res.Retries++
		if ss.obs != nil {
			ss.obs.OnEvent(telemetry.Event{
				Kind: telemetry.ChunkRetry, At: ss.now, Chunk: k,
				RateIndex: idx, PrevRateIndex: -1, Duration: backoff,
			})
		}
		if budgetUsed >= ss.rp.Budget && !degraded && idx > 0 {
			degraded = true
			budgetUsed = 0
			ss.res.Degradations++
			prevReq := idx
			idx = 0
			bytes = ss.s.ChunkSize(0, k)
			if ss.obs != nil {
				ss.obs.OnEvent(telemetry.Event{
					Kind: telemetry.Degrade, At: ss.now, Chunk: k,
					RateIndex: 0, PrevRateIndex: prevReq,
					Rate: ss.ladder[0], Bytes: bytes, Buffer: ss.buf.Level(),
				})
				ss.obs.OnEvent(telemetry.Event{
					Kind: telemetry.ChunkRequest, At: ss.now, Chunk: k,
					RateIndex: 0, PrevRateIndex: -1,
					Rate: ss.ladder[0], Bytes: bytes, Buffer: ss.buf.Level(),
				})
			}
		}
	}
}

// finish plays out the tail of the buffer (up to the watch limit). For an
// incomplete session this is the video the viewer still sees before the
// permanent freeze. With no further downloads coming, a pending stall ends
// now rather than waiting for the resume threshold.
func (ss *Session) finish() {
	res := ss.res
	if ss.obs != nil && !res.Incomplete && ss.buf.Started() && !ss.buf.Playing() {
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.RebufferEnd, At: ss.now, Chunk: -1,
			RateIndex: -1, PrevRateIndex: -1,
			Duration: ss.buf.StallTime() - ss.stallBase, Buffer: ss.buf.Level(),
		})
	}
	ss.buf.Resume()
	remaining := ss.buf.Level()
	if ss.watch > 0 {
		if left := ss.watch - ss.buf.Played(); left < remaining {
			remaining = left
		}
	}
	if remaining > 0 {
		ss.buf.Advance(remaining)
		ss.now += remaining
	}

	res.Played = ss.buf.Played()
	res.Rebuffers += ss.buf.Rebuffers()
	res.StallTime += ss.buf.StallTime()
	res.End = ss.now
	if ss.obs != nil {
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.SessionEnd, At: res.End, Chunk: res.ChunkCount(),
			RateIndex: -1, PrevRateIndex: -1,
			Duration: res.StallTime, Played: res.Played, Label: res.Algorithm,
		})
	}
	ss.finished = true
}
