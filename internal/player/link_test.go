package player

import (
	"context"
	"errors"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/telemetry"
)

// failLink is a Link whose every fetch fails with err.
type failLink struct{ err error }

func (l failLink) Fetch(time.Duration, int, int) (int64, time.Duration, error) {
	return 0, 0, l.err
}

func (failLink) Idle(time.Duration) error { return nil }

// TestLinkFailureModes pins how Step ends on a link failure. A link that
// gives up (ErrOutage) ends the session as an Incomplete outage, even at
// chunk 0 — where a dead virtual link returns ErrNoProgress instead
// (TestDeadLinkFromStart). Any other link error aborts the session.
func TestLinkFailureModes(t *testing.T) {
	var events []telemetry.Event
	cfg := Config{
		Algorithm: abr.NewBBA0(),
		Stream:    cbrStream(t, 10),
		Observer:  telemetry.Func(func(e telemetry.Event) { events = append(events, e) }),
	}
	res, err := RunLink(context.Background(), cfg, failLink{err: ErrOutage})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete || res.Rebuffers != 1 || res.ChunkCount() != 0 {
		t.Errorf("incomplete=%v rebuffers=%d chunks=%d, want an Incomplete outage before any chunk",
			res.Incomplete, res.Rebuffers, res.ChunkCount())
	}
	if n := len(events); n < 2 || events[n-2].Kind != telemetry.RebufferStart || events[n-2].Label != "outage" {
		t.Errorf("journal does not end in an outage rebuffer: %+v", events)
	}

	boom := errors.New("boom")
	cfg.Observer = nil
	if _, err := RunLink(context.Background(), cfg, failLink{err: boom}); err != boom {
		t.Errorf("err = %v, want the link's error", err)
	}
}
