package archive

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"bba/internal/telemetry"
)

// Query selects archived events. Zero-valued fields match everything, so
// Query{Run: "r"} is "the whole run".
type Query struct {
	// Run is the run to query (required).
	Run string
	// Kinds restricts to these event kinds; empty matches all.
	Kinds []telemetry.Kind
	// Session restricts to one exact session label.
	Session string
	// Group restricts to sessions whose telemetry.GroupOfSession matches.
	Group string
	// From and To bound the session clock: events with From <= At are
	// matched, and — when To > 0 — only those with At <= To.
	From, To time.Duration
}

func errRunRequired() error { return fmt.Errorf("archive: Query.Run is required") }

// matchesWindow reports whether a [min, max] at_ns window can contain a
// matching event.
func (q Query) matchesWindow(minNS, maxNS int64) bool {
	if maxNS < int64(q.From) {
		return false
	}
	if q.To > 0 && minNS > int64(q.To) {
		return false
	}
	return true
}

// matchesAt reports whether one event time passes the window predicate.
func (q Query) matchesAt(atNS int64) bool {
	return atNS >= int64(q.From) && (q.To <= 0 || atNS <= int64(q.To))
}

// kindNames returns the queried kinds' journal names; nil means all.
func (q Query) kindNames() map[string]bool {
	if len(q.Kinds) == 0 {
		return nil
	}
	m := make(map[string]bool, len(q.Kinds))
	for _, k := range q.Kinds {
		m[k.String()] = true
	}
	return m
}

// pruneBlock reports whether the block's footer alone proves no row can
// match: disjoint time window, no queried kind present, or — for group
// queries — no session of that group.
func (q Query) pruneBlock(ft footer) bool {
	if ft.Rows == 0 || !q.matchesWindow(ft.MinAtNS, ft.MaxAtNS) {
		return true
	}
	if names := q.kindNames(); names != nil {
		any := false
		for _, k := range ft.Kinds {
			if names[k] {
				any = true
				break
			}
		}
		if !any {
			return true
		}
	}
	if q.Group != "" {
		any := false
		for _, g := range ft.Groups {
			if g == q.Group {
				any = true
				break
			}
		}
		if !any {
			return true
		}
	}
	return false
}

// matchesEvent is the row-at-a-time predicate the WAL tail and Scan's
// materialized path share.
func (q Query) matchesEvent(e *telemetry.Event) bool {
	if !q.matchesAt(int64(e.At)) {
		return false
	}
	if names := q.kindNames(); names != nil && !names[e.Kind.String()] {
		return false
	}
	if q.Session != "" && e.Session != q.Session {
		return false
	}
	if q.Group != "" && telemetry.GroupOfSession(e.Session) != q.Group {
		return false
	}
	return true
}

// Scan streams every matching event in admission order — sealed blocks
// first, then the live WAL tail — calling fn for each. fn returning false
// stops the scan early. Blocks whose footer excludes the query are pruned
// without reading a column page.
func (s *Store) Scan(q Query, fn func(telemetry.Event) bool) error {
	if q.Run == "" {
		return errRunRequired()
	}
	blocks, walLines, err := s.snapshot(q.Run)
	if err != nil {
		return err
	}
	kindNames := q.kindNames()
	for _, path := range blocks {
		cb, err := s.block(path, q.pruneBlock, true)
		if err != nil {
			return err
		}
		if cb == nil {
			continue
		}
		stop, err := scanBlock(cb, q, kindNames, fn)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	for _, line := range walLines {
		e, ok := telemetry.ParseJSONL(line)
		if !ok {
			e = parseLoose(line)
		}
		if q.matchesEvent(&e) && !fn(e) {
			return nil
		}
	}
	return nil
}

// scanBlock walks one block row-wise. It decodes the dictionary columns
// first and resolves the predicates to dictionary-index sets, so the
// per-row filter is integer compares; only rows that pass materialize an
// Event.
func scanBlock(cb *colBlock, q Query, kindNames map[string]bool, fn func(telemetry.Event) bool) (stop bool, err error) {
	kind, err := cb.dict("kind")
	if err != nil {
		return false, err
	}
	session, err := cb.dict("session")
	if err != nil {
		return false, err
	}
	kindOK := make([]bool, len(kind.entries))
	kinds := make([]telemetry.Kind, len(kind.entries))
	for i, name := range kind.entries {
		kindOK[i] = kindNames == nil || kindNames[name]
		kinds[i], _ = telemetry.ParseKind(name)
	}
	sessOK := make([]bool, len(session.entries))
	for i, sess := range session.entries {
		sessOK[i] = (q.Session == "" || sess == q.Session) &&
			(q.Group == "" || telemetry.GroupOfSession(sess) == q.Group)
	}
	var at []int64
	if q.From > 0 || q.To > 0 {
		if at, err = cb.col("at_ns"); err != nil {
			return false, err
		}
	}
	// Lazily decode the remaining columns only once a row matches.
	var label dictColumn
	var ints [][]int64
	intCols := telemetry.IntColumns()
	materialize := func() error {
		if ints != nil {
			return nil
		}
		if label, err = cb.dict("label"); err != nil {
			return err
		}
		cols := make([][]int64, len(intCols))
		for i := range intCols {
			if cols[i], err = cb.colAt(i); err != nil {
				return err
			}
		}
		ints = cols
		return nil
	}
	var e telemetry.Event
	for i := 0; i < cb.Rows(); i++ {
		if !kindOK[kind.rows[i]] || !sessOK[session.rows[i]] {
			continue
		}
		if at != nil && !q.matchesAt(at[i]) {
			continue
		}
		if err := materialize(); err != nil {
			return false, err
		}
		// One Event is reused across rows: the column setters take its
		// address, so a fresh one per row would escape to the heap.
		e = telemetry.Event{
			Kind:    kinds[kind.rows[i]],
			Session: session.entries[session.rows[i]],
			Label:   label.entries[label.rows[i]],
		}
		for ci, c := range intCols {
			c.Set(&e, ints[ci][i])
		}
		if !fn(e) {
			return true, nil
		}
	}
	return false, nil
}

// block returns the block at path for reading, or nil when prune (if
// set) rejects its footer. A block the cache holds for this very file is
// served from it: its identity and its bytes come from one open file, so
// an entry always holds the bytes of the file it is keyed on. On a miss
// the footer is read alone first, so a pruned block costs two small
// reads; a block that survives is read whole, its envelope and footer
// checked, and — when cache is set — added to the cache before any of its
// pages decode.
func (s *Store) block(path string, prune func(footer) bool, cache bool) (*colBlock, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	id := fileID{size: fi.Size(), mtimeNS: fi.ModTime().UnixNano()}
	if cb := s.cache.get(path, id); cb != nil {
		if prune != nil && prune(cb.ft) {
			return nil, nil
		}
		return cb, nil
	}
	if prune != nil {
		ft, err := readFooterAt(f, fi.Size())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		if prune(ft) {
			return nil, nil
		}
	}
	data := make([]byte, fi.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, err
	}
	blk, err := DecodeBlock(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	cb := newColBlock(blk)
	if cache {
		s.cache.put(path, id, cb)
	}
	return cb, nil
}

// parseLoose is the lenient fallback for non-canonical WAL lines,
// mirroring what encodeBlock stores in the columns for raw rows.
func parseLoose(line []byte) telemetry.Event {
	var e telemetry.Event
	le, _ := unmarshalLoose(line)
	k, _ := telemetry.ParseKind(le.Kind)
	e.Kind = k
	e.Session = le.Session
	e.Label = le.Label
	loose := le.ints()
	for i, c := range telemetry.IntColumns() {
		c.Set(&e, loose[i])
	}
	return e
}

// readFooterAt reads only a block's tail — the 12-byte trailer plus the
// footer JSON — so pruning a block costs two small reads, not the file.
func readFooterAt(r io.ReaderAt, size int64) (footer, error) {
	var ft footer
	if size < int64(len(blockMagic))+1+blockTailLen {
		return ft, fmt.Errorf("%w: %d bytes", ErrBadBlock, size)
	}
	var tail [blockTailLen]byte
	if _, err := r.ReadAt(tail[:], size-blockTailLen); err != nil {
		return ft, err
	}
	if string(tail[8:]) != string(blockEndMagic) {
		return ft, fmt.Errorf("%w: end magic", ErrBadBlock)
	}
	flen := int64(binary.LittleEndian.Uint32(tail[4:8]))
	if flen > maxFooterLen || size-blockTailLen < flen {
		return ft, fmt.Errorf("%w: footer length %d", ErrBadBlock, flen)
	}
	ftJSON := make([]byte, flen)
	if _, err := r.ReadAt(ftJSON, size-blockTailLen-flen); err != nil {
		return ft, err
	}
	if crc32.Checksum(ftJSON, blockCRCTable) != binary.LittleEndian.Uint32(tail[:4]) {
		return ft, fmt.Errorf("%w: footer checksum", ErrBadBlock)
	}
	if err := json.Unmarshal(ftJSON, &ft); err != nil {
		return ft, fmt.Errorf("%w: footer: %v", ErrBadBlock, err)
	}
	return ft, nil
}
