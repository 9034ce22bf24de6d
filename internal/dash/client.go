package dash

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/telemetry"
	"bba/internal/units"
)

// ClientConfig describes one HTTP streaming session.
type ClientConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Endpoints is the ordered server-root list for multi-endpoint
	// failover; the first entry is the primary. When empty, BaseURL is
	// the single endpoint. The client health-scores each endpoint,
	// abandons one after repeated failures, and fails back to the
	// primary once the fallback has proven itself.
	Endpoints []string
	// Fetch bounds per-chunk fetching: attempt timeout, backoff and the
	// attempt budget. The zero value means defaults.
	Fetch FetchPolicy
	// HTTPClient performs the requests; nil means http.DefaultClient.
	// Shape its transport (see internal/netem) to emulate a constrained
	// downstream path.
	HTTPClient *http.Client
	// Algorithm selects rates; a fresh per-session instance.
	Algorithm abr.Algorithm
	// Rmin applies the paper's footnote-3 promotion to this session.
	Rmin units.BitRate
	// BufferMax is the playback buffer capacity (default 240 s).
	BufferMax time.Duration
	// WatchLimit stops after this much delivered video; 0 plays the
	// whole title.
	WatchLimit time.Duration
	// UseMPD fetches the standards-shaped /manifest.mpd instead of the
	// JSON manifest. An MPD carries no per-chunk sizes, so the client
	// models every chunk at its nominal V·R size — the paper's situation
	// before the Section 5 chunk map, and the reason the native manifest
	// carries the size matrix.
	UseMPD bool
	// UseHLS drives the session from the HLS playlists (/master.m3u8 and
	// the variant media playlists). Like the MPD it carries no sizes, so
	// the client models nominal encodes. Mutually exclusive with UseMPD.
	UseHLS bool
	// Logf, when non-nil, receives per-chunk progress lines.
	Logf func(format string, args ...any)
	// Observer, when non-nil, receives the session's telemetry events.
	// At is the session clock: ON-OFF idles plus measured fetch times.
	Observer telemetry.Observer
}

// ErrChunkFailed reports a chunk that could not be fetched within the retry
// budget. It wraps player.ErrOutage: the session ends in an outage.
var ErrChunkFailed = fmt.Errorf("dash: chunk fetch failed: %w", player.ErrOutage)

// Stream runs a real-time HTTP streaming session: it fetches the manifest,
// then runs the simulator's playback loop (player.Session) over an HTTP
// link — chunk downloads on a real connection with endpoint failover, and
// ON-OFF idles on the wall clock. It returns the same Result type as the
// virtual-time player, so all metrics helpers apply.
func Stream(ctx context.Context, cfg ClientConfig) (*player.Result, error) {
	if cfg.Algorithm == nil {
		return nil, errors.New("dash: nil algorithm")
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	endpoints := cfg.Endpoints
	if len(endpoints) == 0 {
		if cfg.BaseURL == "" {
			return nil, errors.New("dash: no endpoints")
		}
		endpoints = []string{cfg.BaseURL}
	}

	var video *media.Video
	switch {
	case cfg.UseMPD && cfg.UseHLS:
		return nil, errors.New("dash: UseMPD and UseHLS are mutually exclusive")
	case cfg.UseMPD:
		mpd, err := tryEndpoints(endpoints, func(base string) (MPD, error) {
			return fetchMPD(ctx, httpc, base)
		})
		if err != nil {
			return nil, err
		}
		video, err = videoFromMPD(mpd)
		if err != nil {
			return nil, fmt.Errorf("dash: bad MPD: %w", err)
		}
	case cfg.UseHLS:
		var err error
		video, err = tryEndpoints(endpoints, func(base string) (*media.Video, error) {
			return videoFromHLS(ctx, httpc, base)
		})
		if err != nil {
			return nil, err
		}
	default:
		manifest, err := tryEndpoints(endpoints, func(base string) (Manifest, error) {
			return fetchManifest(ctx, httpc, base)
		})
		if err != nil {
			return nil, err
		}
		video, err = manifest.Video()
		if err != nil {
			return nil, fmt.Errorf("dash: bad manifest: %w", err)
		}
	}
	f := &fetcher{
		ctx: ctx,
		c:   httpc,
		es:  newEndpointSet(endpoints),
		fp:  cfg.Fetch.withDefaults(),
		s:   abr.NewStream(video, cfg.Rmin),
		obs: telemetry.Multi(cfg.Observer, logObserver(cfg.Logf)),
	}
	res, err := player.RunLink(ctx, player.Config{
		Algorithm:  cfg.Algorithm,
		Stream:     f.s,
		BufferMax:  cfg.BufferMax,
		WatchLimit: cfg.WatchLimit,
		Observer:   f.obs,
	}, f)
	if err != nil {
		return nil, err
	}
	res.Retries, res.Failovers = f.retries, f.failovers
	return res, nil
}

// logObserver turns per-chunk and failover events into Logf lines; a nil
// logf yields a nil observer.
func logObserver(logf func(format string, args ...any)) telemetry.Observer {
	if logf == nil {
		return nil
	}
	return telemetry.Func(func(e telemetry.Event) {
		switch e.Kind {
		case telemetry.ChunkComplete:
			logf("chunk %d: rate=%v bytes=%d dl=%v buffer=%v", e.Chunk, e.Rate, e.Bytes, e.Duration.Round(time.Millisecond), e.Buffer.Round(100*time.Millisecond))
		case telemetry.Failover:
			logf("failover: endpoint %d -> %d (%s)", e.PrevRateIndex, e.RateIndex, e.Label)
		}
	})
}

// fetchMPD retrieves and parses the standards manifest.
func fetchMPD(ctx context.Context, c *http.Client, base string) (MPD, error) {
	var m MPD
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/manifest.mpd", nil)
	if err != nil {
		return m, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return m, fmt.Errorf("dash: MPD fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("dash: MPD fetch: status %s", resp.Status)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return m, err
	}
	if err := xml.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("dash: MPD parse: %w", err)
	}
	return m, nil
}

// videoFromHLS reconstructs a nominal-size title from the HLS playlists:
// the master supplies the ladder, the first variant's media playlist the
// segment count and duration. Segments are then addressed through the same
// /chunk/{rate}/{index} convention the playlists point at.
func videoFromHLS(ctx context.Context, c *http.Client, base string) (*media.Video, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/master.m3u8", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dash: master playlist fetch: %w", err)
	}
	master, err := ParseMasterPlaylist(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dash: master playlist fetch: status %s", resp.Status)
	}
	ladder := master.Ladder()
	if err := ladder.Validate(); err != nil {
		return nil, fmt.Errorf("dash: HLS ladder: %w", err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+master.Variants[0].URI, nil)
	if err != nil {
		return nil, err
	}
	resp, err = c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dash: media playlist fetch: %w", err)
	}
	pl, err := ParseMediaPlaylist(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(pl.SegmentSecs) == 0 || pl.SegmentSecs[0] <= 0 {
		return nil, fmt.Errorf("dash: media playlist has no usable segment durations")
	}
	v := units.SecondsToDuration(pl.SegmentSecs[0])
	return media.NewCBR("hls", ladder, v, len(pl.SegmentURIs))
}

// videoFromMPD reconstructs a nominal-size (CBR-shaped) title from the MPD.
func videoFromMPD(m MPD) (*media.Video, error) {
	ladder := m.Ladder()
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	v := m.ChunkDuration()
	if v <= 0 {
		return nil, fmt.Errorf("dash: MPD has no usable segment duration")
	}
	total, err := m.Duration()
	if err != nil {
		return nil, err
	}
	chunks := int(total / v)
	if chunks <= 0 {
		return nil, fmt.Errorf("dash: MPD presentation shorter than one segment")
	}
	return media.NewCBR("mpd", ladder, v, chunks)
}

func fetchManifest(ctx context.Context, c *http.Client, base string) (Manifest, error) {
	var m Manifest
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/manifest.json", nil)
	if err != nil {
		return m, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return m, fmt.Errorf("dash: manifest fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("dash: manifest fetch: status %s", resp.Status)
	}
	if err := jsonDecode(resp.Body, &m); err != nil {
		return m, fmt.Errorf("dash: manifest decode: %w", err)
	}
	return m, nil
}

// tryEndpoints runs fetch against each endpoint in preference order until
// one succeeds.
func tryEndpoints[T any](endpoints []string, fetch func(base string) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for _, base := range endpoints {
		v, err := fetch(base)
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	return zero, lastErr
}

// fetcher is the HTTP link: it downloads chunks under a FetchPolicy with
// endpoint failover, and lets ON-OFF idles pass on the wall clock.
type fetcher struct {
	ctx context.Context
	c   *http.Client
	es  *endpointSet
	fp  FetchPolicy
	s   abr.Stream
	obs telemetry.Observer

	retries, failovers int
	// The session clock when the current fetch was issued, and the wall
	// time it was issued at: link events are stamped on the session clock.
	now   time.Duration
	start time.Time
}

// Fetch implements player.Link: it downloads chunk k, retrying with
// deterministic backoff and failing over between endpoints, and times the
// whole fetch on the wall clock.
func (f *fetcher) Fetch(now time.Duration, k, idx int) (int64, time.Duration, error) {
	f.now, f.start = now, time.Now()
	rate := f.s.VideoIndex(idx)
	var lastErr error
	for attempt := 0; attempt < f.fp.MaxAttempts; attempt++ {
		if attempt > 0 {
			backoff := faults.Backoff(f.fp.BackoffBase, f.fp.BackoffCap, uint64(f.fp.JitterSeed), k, attempt)
			f.retries++
			f.emit(telemetry.Event{
				Kind: telemetry.ChunkRetry, Chunk: k,
				RateIndex: -1, PrevRateIndex: -1, Duration: backoff,
			})
			if err := f.Idle(backoff); err != nil {
				return 0, 0, err
			}
		}
		_, base := f.es.current()
		n, err := f.try(base, rate, k)
		if err == nil {
			f.switched(f.es.success())
			return n, time.Since(f.start), nil
		}
		if f.ctx.Err() != nil {
			return 0, 0, f.ctx.Err()
		}
		lastErr = err
		f.switched(f.es.failure())
	}
	return 0, 0, fmt.Errorf("%w: chunk %d/%d after %d attempts: %v", ErrChunkFailed, rate, k, f.fp.MaxAttempts, lastErr)
}

// Idle implements player.Link: it waits d on the wall clock, or until the
// session's context is done. Retry backoffs wait the same way.
func (f *fetcher) Idle(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.ctx.Done():
		return f.ctx.Err()
	case <-t.C:
		return nil
	}
}

// switched records an endpoint switch reported by the endpoint set.
func (f *fetcher) switched(sw bool, from, to int) {
	if !sw {
		return
	}
	f.failovers++
	f.emit(telemetry.Event{
		Kind: telemetry.Failover, Chunk: -1,
		RateIndex: to, PrevRateIndex: from, Label: f.es.urls[to],
	})
}

// emit stamps e on the session clock and hands it to the observer.
func (f *fetcher) emit(e telemetry.Event) {
	if f.obs != nil {
		e.At = f.now + time.Since(f.start)
		f.obs.OnEvent(e)
	}
}

// try performs a single attempt against base under the per-chunk timeout.
func (f *fetcher) try(base string, rate, k int) (int64, error) {
	ctx, cancel := context.WithTimeout(f.ctx, f.fp.ChunkTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/chunk/%d/%d", base, rate, k), nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, err
	}
	return n, nil
}
