package archive

import (
	"sort"

	"bba/internal/telemetry"
)

// GroupRollup aggregates one experiment group's archived events: the
// paper's primary outcome (time spent rebuffering), the engagement and
// quality proxies (play time, delivered rate), and switching behaviour.
// All fields are integers so the JSON form is deterministic.
type GroupRollup struct {
	Group string `json:"group"`
	// Sessions counts distinct session labels seen in the group.
	Sessions int `json:"sessions"`
	// Events counts matched events of any kind.
	Events int64 `json:"events"`
	// Chunks and Bytes total over chunk_complete events.
	Chunks int64 `json:"chunks"`
	Bytes  int64 `json:"bytes"`
	// RateSumBps sums the delivered rate over chunk_complete events;
	// RateSumBps/Chunks is the average delivered videorate.
	RateSumBps int64 `json:"rate_sum_bps"`
	// Rebuffers counts rebuffer_start events; RebufferNS totals the stall
	// time reported by rebuffer_end events.
	Rebuffers  int64 `json:"rebuffers"`
	RebufferNS int64 `json:"rebuffer_ns"`
	// Switches counts rate_switch events; SwitchUp those that raised the
	// rate index.
	Switches int64 `json:"switches"`
	SwitchUp int64 `json:"switch_up"`
	// PlayedNS totals play time reported by session_end events.
	PlayedNS int64 `json:"played_ns"`
}

// Rollup is the result of Aggregate: per-group rollups plus run totals.
type Rollup struct {
	Run    string        `json:"run"`
	Blocks int           `json:"blocks"`
	Rows   int64         `json:"rows"`
	Groups []GroupRollup `json:"groups"`
}

// kindClass is the rollup dispatch for one kind-dictionary entry.
type kindClass uint8

const (
	classOther kindClass = iota
	classChunk
	classRebufStart
	classRebufEnd
	classSwitch
	classSessionEnd
)

func classify(name string) kindClass {
	k, ok := telemetry.ParseKind(name)
	if !ok {
		return classOther
	}
	switch k {
	case telemetry.ChunkComplete:
		return classChunk
	case telemetry.RebufferStart:
		return classRebufStart
	case telemetry.RebufferEnd:
		return classRebufEnd
	case telemetry.RateSwitch:
		return classSwitch
	case telemetry.SessionEnd:
		return classSessionEnd
	default:
		return classOther
	}
}

// aggState accumulates a rollup across blocks and the WAL tail.
type aggState struct {
	groups map[string]*GroupRollup
	// seen holds distinct session labels per group, shared across blocks so
	// a session split over a block boundary counts once.
	seen map[string]map[string]bool
}

func newAggState() *aggState {
	return &aggState{groups: map[string]*GroupRollup{}, seen: map[string]map[string]bool{}}
}

func (a *aggState) group(g string) *GroupRollup {
	gr, ok := a.groups[g]
	if !ok {
		gr = &GroupRollup{Group: g}
		a.groups[g] = gr
		a.seen[g] = map[string]bool{}
	}
	return gr
}

func (a *aggState) session(g, session string) {
	gr := a.group(g)
	if !a.seen[g][session] {
		a.seen[g][session] = true
		gr.Sessions++
	}
}

// addEvent folds one materialized event — the WAL-tail path.
func (a *aggState) addEvent(e *telemetry.Event) {
	g := telemetry.GroupOfSession(e.Session)
	a.session(g, e.Session)
	gr := a.group(g)
	gr.Events++
	switch classify(e.Kind.String()) {
	case classChunk:
		gr.Chunks++
		gr.Bytes += e.Bytes
		gr.RateSumBps += int64(e.Rate)
	case classRebufStart:
		gr.Rebuffers++
	case classRebufEnd:
		gr.RebufferNS += int64(e.Duration)
	case classSwitch:
		gr.Switches++
		if e.RateIndex > e.PrevRateIndex {
			gr.SwitchUp++
		}
	case classSessionEnd:
		gr.PlayedNS += int64(e.Played)
	}
}

// addBlock folds one block column-wise: the kind and session dictionaries
// resolve to per-entry dispatch tables once, then the row loop is array
// indexing over the decoded integer slabs — no Event is ever built.
func (a *aggState) addBlock(cb *colBlock, q Query) error {
	kind, err := cb.dict("kind")
	if err != nil {
		return err
	}
	session, err := cb.dict("session")
	if err != nil {
		return err
	}
	classes := make([]kindClass, len(kind.entries))
	kindOK := make([]bool, len(kind.entries))
	names := q.kindNames()
	for i, name := range kind.entries {
		classes[i] = classify(name)
		kindOK[i] = names == nil || names[name]
	}
	sessGroup := make([]string, len(session.entries))
	sessOK := make([]bool, len(session.entries))
	for i, sess := range session.entries {
		sessGroup[i] = telemetry.GroupOfSession(sess)
		sessOK[i] = (q.Session == "" || sess == q.Session) &&
			(q.Group == "" || sessGroup[i] == q.Group)
	}
	var at []int64
	if q.From > 0 || q.To > 0 {
		if at, err = cb.col("at_ns"); err != nil {
			return err
		}
	}
	// Only the columns the rollup reads are decoded; which ones depends on
	// the kinds actually present in the block.
	need := map[string]bool{}
	for _, cl := range classes {
		switch cl {
		case classChunk:
			need["bytes"], need["rate_bps"] = true, true
		case classRebufEnd:
			need["duration_ns"] = true
		case classSwitch:
			need["rate_index"], need["prev_rate_index"] = true, true
		case classSessionEnd:
			need["played_ns"] = true
		}
	}
	cols := map[string][]int64{}
	for name := range need {
		if cols[name], err = cb.col(name); err != nil {
			return err
		}
	}
	bytesCol, rateCol := cols["bytes"], cols["rate_bps"]
	durCol := cols["duration_ns"]
	idxCol, prevCol := cols["rate_index"], cols["prev_rate_index"]
	playedCol := cols["played_ns"]

	// A session's group rollup resolves on its first matching row; later
	// rows index it instead of hashing the session and group names.
	sessRollup := make([]*GroupRollup, len(session.entries))
	for i := 0; i < cb.Rows(); i++ {
		ki, si := kind.rows[i], session.rows[i]
		if !kindOK[ki] || !sessOK[si] {
			continue
		}
		if at != nil && !q.matchesAt(at[i]) {
			continue
		}
		gr := sessRollup[si]
		if gr == nil {
			a.session(sessGroup[si], session.entries[si])
			gr = a.group(sessGroup[si])
			sessRollup[si] = gr
		}
		gr.Events++
		switch classes[ki] {
		case classChunk:
			gr.Chunks++
			gr.Bytes += bytesCol[i]
			gr.RateSumBps += rateCol[i]
		case classRebufStart:
			gr.Rebuffers++
		case classRebufEnd:
			gr.RebufferNS += durCol[i]
		case classSwitch:
			gr.Switches++
			if idxCol[i] > prevCol[i] {
				gr.SwitchUp++
			}
		case classSessionEnd:
			gr.PlayedNS += playedCol[i]
		}
	}
	return nil
}

// Aggregate computes per-group rollups for q without materializing rows
// from blocks: footer pruning skips irrelevant blocks entirely, and
// surviving blocks fold column slabs directly. The WAL tail folds row-wise.
func (s *Store) Aggregate(q Query) (Rollup, error) {
	r := Rollup{Run: q.Run}
	if q.Run == "" {
		return r, errRunRequired()
	}
	blocks, walLines, err := s.snapshot(q.Run)
	if err != nil {
		return r, err
	}
	st := newAggState()
	for _, path := range blocks {
		cb, err := s.block(path, q.pruneBlock, true)
		if err != nil {
			return r, err
		}
		if cb == nil {
			continue
		}
		if err := st.addBlock(cb, q); err != nil {
			return r, err
		}
		r.Blocks++
		r.Rows += int64(cb.Rows())
	}
	for _, line := range walLines {
		e, ok := telemetry.ParseJSONL(line)
		if !ok {
			e = parseLoose(line)
		}
		r.Rows++
		if q.matchesEvent(&e) {
			st.addEvent(&e)
		}
	}
	r.Groups = make([]GroupRollup, 0, len(st.groups))
	for _, gr := range st.groups {
		r.Groups = append(r.Groups, *gr)
	}
	sort.Slice(r.Groups, func(i, j int) bool { return r.Groups[i].Group < r.Groups[j].Group })
	return r, nil
}
