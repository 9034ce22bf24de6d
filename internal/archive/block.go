package archive

import (
	"container/list"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"bba/internal/telemetry"
)

// Block format (all integers little-endian):
//
//	magic   [4]byte  "BBAC"
//	version uint8    1
//	pages   ...      each page is payload bytes + uint32 CRC-32C(payload)
//	footer  JSON     locates the pages and summarizes the block
//	fcrc    uint32   CRC-32C over the footer JSON
//	flen    uint32   footer JSON length
//	magic   [4]byte  "BBAE"
//
// Pages, in file order:
//
//	kind, session, label   dictionary columns: uvarint entry count, each
//	                       entry uvarint length + bytes, then one uvarint
//	                       dictionary index per row
//	<int columns>          one page per telemetry.IntColumns entry, one
//	                       varint per row: zigzag(delta) for near-monotone
//	                       columns (at_ns, chunk), zigzag(value) otherwise
//	raw                    rows whose journal line was not canonical
//	                       ParseJSONL output, stored verbatim so export
//	                       stays byte-lossless: uvarint count, then per
//	                       entry uvarint row index, uvarint length, bytes
//
// The footer carries the block key — run, row count, [min,max] at_ns
// window — plus the kind names and session groups present, so readers
// prune whole blocks from a 12-byte tail read and one footer parse without
// touching any column page.
const (
	blockVersion = 1
	// blockTailLen is fcrc + flen + end magic.
	blockTailLen = 4 + 4 + 4
	// maxFooterLen bounds what a decoder will allocate for a footer, so a
	// corrupt length field cannot demand unbounded memory.
	maxFooterLen = 16 << 20
)

var (
	blockMagic    = []byte("BBAC")
	blockEndMagic = []byte("BBAE")
	blockCRCTable = crc32.MakeTable(crc32.Castagnoli)

	// ErrBadBlock reports a structurally invalid or corrupt block file.
	ErrBadBlock = errors.New("archive: bad block")
)

// pageInfo locates one page's payload inside the block file.
type pageInfo struct {
	Name string `json:"name"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
}

// footer is the block's index, serialized as JSON at the tail.
type footer struct {
	Version int        `json:"version"`
	Run     string     `json:"run"`
	Rows    int        `json:"rows"`
	MinAtNS int64      `json:"min_at_ns"`
	MaxAtNS int64      `json:"max_at_ns"`
	Kinds   []string   `json:"kinds"`
	Groups  []string   `json:"groups"`
	Raws    int        `json:"raws"`
	Pages   []pageInfo `json:"pages"`
}

// zigzag maps signed to unsigned so small-magnitude values of either sign
// stay short varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// dictBuilder interns strings into first-appearance dictionary order.
type dictBuilder struct {
	index   map[string]uint64
	entries []string
	rows    []uint64
}

func newDictBuilder() *dictBuilder {
	return &dictBuilder{index: make(map[string]uint64)}
}

func (d *dictBuilder) add(s string) {
	idx, ok := d.index[s]
	if !ok {
		idx = uint64(len(d.entries))
		d.index[s] = idx
		d.entries = append(d.entries, s)
	}
	d.rows = append(d.rows, idx)
}

func (d *dictBuilder) page(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.entries)))
	for _, e := range d.entries {
		dst = binary.AppendUvarint(dst, uint64(len(e)))
		dst = append(dst, e...)
	}
	for _, r := range d.rows {
		dst = binary.AppendUvarint(dst, r)
	}
	return dst
}

// rawRow is one non-canonical journal line kept verbatim.
type rawRow struct {
	row  int
	line []byte
}

// looseEvent mirrors the journal's field names for the lenient fallback
// parse of non-canonical lines: the line is preserved verbatim for export,
// but whatever fields it does carry still land in the columns so scans and
// rollups see it.
type looseEvent struct {
	Kind          string `json:"kind"`
	Session       string `json:"session"`
	AtNS          int64  `json:"at_ns"`
	Chunk         int64  `json:"chunk"`
	RateIndex     int64  `json:"rate_index"`
	PrevRateIndex int64  `json:"prev_rate_index"`
	RateBps       int64  `json:"rate_bps"`
	Bytes         int64  `json:"bytes"`
	DurationNS    int64  `json:"duration_ns"`
	ThroughputBps int64  `json:"throughput_bps"`
	BufferNS      int64  `json:"buffer_ns"`
	PlayedNS      int64  `json:"played_ns"`
	ReservoirNS   int64  `json:"reservoir_ns"`
	ProtectionNS  int64  `json:"protection_ns"`
	Label         string `json:"label"`
}

// unmarshalLoose best-effort parses a journal line into a looseEvent;
// fields the line lacks stay zero.
func unmarshalLoose(line []byte) (looseEvent, error) {
	var le looseEvent
	err := json.Unmarshal(line, &le)
	return le, err
}

// ints returns the integer fields in telemetry.IntColumns order.
func (le *looseEvent) ints() []int64 {
	return []int64{le.AtNS, le.Chunk, le.RateIndex, le.PrevRateIndex,
		le.RateBps, le.Bytes, le.DurationNS, le.ThroughputBps,
		le.BufferNS, le.PlayedNS, le.ReservoirNS, le.ProtectionNS}
}

// encodeBlock renders one immutable block from journal lines in admission
// order. Lines are canonical ParseJSONL output in the common case; any
// other line is parsed leniently for the columns and additionally stored
// verbatim in the raw page, preserving byte-lossless export.
func encodeBlock(run string, lines [][]byte) ([]byte, error) {
	intCols := telemetry.IntColumns()
	kind, session, label := newDictBuilder(), newDictBuilder(), newDictBuilder()
	ints := make([][]int64, len(intCols))
	var raws []rawRow
	var minAt, maxAt int64
	groups := map[string]bool{}

	var scratch []byte
	for row, line := range lines {
		e, ok := telemetry.ParseJSONL(line)
		var kindName string
		if ok {
			// Belt and braces: the columns must reproduce the line exactly,
			// or the row goes to the raw page. ParseJSONL guarantees this,
			// but losslessness is the archive's contract, so it is enforced
			// here, where it is cheap, rather than trusted.
			scratch = telemetry.AppendJSONL(scratch[:0], e)
			if string(scratch) != string(line) {
				ok = false
			}
		}
		if ok {
			kindName = e.Kind.String()
		} else {
			le, _ := unmarshalLoose(line) // best effort; zero values on failure
			kindName = le.Kind
			e = telemetry.Event{Session: le.Session, Label: le.Label}
			for i, v := range le.ints() {
				intCols[i].Set(&e, v)
			}
			raws = append(raws, rawRow{row: row, line: line})
		}
		kind.add(kindName)
		session.add(e.Session)
		label.add(e.Label)
		for i, c := range intCols {
			ints[i] = append(ints[i], c.Get(&e))
		}
		at := int64(e.At)
		if row == 0 || at < minAt {
			minAt = at
		}
		if row == 0 || at > maxAt {
			maxAt = at
		}
		groups[telemetry.GroupOfSession(e.Session)] = true
	}

	ft := footer{
		Version: blockVersion, Run: run, Rows: len(lines),
		MinAtNS: minAt, MaxAtNS: maxAt,
		Kinds: append([]string(nil), kind.entries...),
		Raws:  len(raws),
	}
	for g := range groups {
		ft.Groups = append(ft.Groups, g)
	}
	sort.Strings(ft.Groups)

	buf := append([]byte(nil), blockMagic...)
	buf = append(buf, blockVersion)
	page := func(name string, payload []byte) {
		ft.Pages = append(ft.Pages, pageInfo{Name: name, Off: int64(len(buf)), Len: int64(len(payload))})
		buf = append(buf, payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, blockCRCTable))
	}
	var p []byte
	page("kind", kind.page(p[:0]))
	page("session", session.page(p[:0]))
	page("label", label.page(p[:0]))
	for i, c := range intCols {
		p = p[:0]
		var prev int64
		for _, v := range ints[i] {
			if c.Delta {
				p = binary.AppendUvarint(p, zigzag(v-prev))
				prev = v
			} else {
				p = binary.AppendUvarint(p, zigzag(v))
			}
		}
		page(c.Name, p)
	}
	p = binary.AppendUvarint(p[:0], uint64(len(raws)))
	for _, r := range raws {
		p = binary.AppendUvarint(p, uint64(r.row))
		p = binary.AppendUvarint(p, uint64(len(r.line)))
		p = append(p, r.line...)
	}
	page("raw", p)

	ftJSON, err := json.Marshal(ft)
	if err != nil {
		return nil, err
	}
	buf = append(buf, ftJSON...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(ftJSON, blockCRCTable))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ftJSON)))
	buf = append(buf, blockEndMagic...)
	return buf, nil
}

// Block is a decoded immutable columnar block. Pages decode lazily and
// independently: a reader that needs three columns never touches the other
// twelve.
type Block struct {
	data []byte
	ft   footer
}

// DecodeBlock parses a block from its full file contents. It never panics,
// whatever the input: truncation, corruption and adversarial length fields
// all surface as ErrBadBlock (the property FuzzBlockDecode pins).
func DecodeBlock(data []byte) (*Block, error) {
	ft, err := decodeFooter(data)
	if err != nil {
		return nil, err
	}
	return &Block{data: data, ft: ft}, nil
}

// decodeFooter validates the envelope and parses the footer index.
func decodeFooter(data []byte) (footer, error) {
	var ft footer
	if len(data) < len(blockMagic)+1+blockTailLen {
		return ft, fmt.Errorf("%w: %d bytes", ErrBadBlock, len(data))
	}
	if string(data[:4]) != string(blockMagic) {
		return ft, fmt.Errorf("%w: magic %x", ErrBadBlock, data[:4])
	}
	if data[4] != blockVersion {
		return ft, fmt.Errorf("%w: version %d", ErrBadBlock, data[4])
	}
	if string(data[len(data)-4:]) != string(blockEndMagic) {
		return ft, fmt.Errorf("%w: end magic", ErrBadBlock)
	}
	flen := int64(binary.LittleEndian.Uint32(data[len(data)-8:]))
	if flen > maxFooterLen || int64(len(data)-blockTailLen) < flen {
		return ft, fmt.Errorf("%w: footer length %d", ErrBadBlock, flen)
	}
	ftJSON := data[int64(len(data)-blockTailLen)-flen : len(data)-blockTailLen]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-12:])
	if crc32.Checksum(ftJSON, blockCRCTable) != wantCRC {
		return ft, fmt.Errorf("%w: footer checksum", ErrBadBlock)
	}
	if err := json.Unmarshal(ftJSON, &ft); err != nil {
		return ft, fmt.Errorf("%w: footer: %v", ErrBadBlock, err)
	}
	// Every row takes at least a byte in each column page, so a row count
	// past the file size is corrupt — and must not size an allocation.
	if ft.Version != blockVersion || ft.Rows < 0 || ft.Rows > len(data) || ft.Raws < 0 {
		return ft, fmt.Errorf("%w: footer fields", ErrBadBlock)
	}
	headerLen := int64(len(blockMagic)) + 1
	for _, pg := range ft.Pages {
		// Bounds via subtraction, not pg.Off+pg.Len+4: a crafted footer
		// (valid CRC, huge offsets) can wrap int64 addition and slip an
		// out-of-range page past the check into a Block.page panic.
		if pg.Off < headerLen || pg.Len < 0 || pg.Len > int64(len(data)) ||
			pg.Off > int64(len(data))-4-pg.Len {
			return ft, fmt.Errorf("%w: page %q outside block", ErrBadBlock, pg.Name)
		}
	}
	return ft, nil
}

// Rows returns the number of events in the block.
func (b *Block) Rows() int { return b.ft.Rows }

// Run returns the run the block belongs to.
func (b *Block) Run() string { return b.ft.Run }

// Kinds returns the kind names present, in dictionary order.
func (b *Block) Kinds() []string { return b.ft.Kinds }

// Groups returns the session groups present, sorted.
func (b *Block) Groups() []string { return b.ft.Groups }

// TimeWindow returns the [min, max] at_ns window the block covers.
func (b *Block) TimeWindow() (minNS, maxNS int64) { return b.ft.MinAtNS, b.ft.MaxAtNS }

// page returns the named page's payload after verifying its CRC.
func (b *Block) page(name string) ([]byte, error) {
	for _, pg := range b.ft.Pages {
		if pg.Name != name {
			continue
		}
		payload := b.data[pg.Off : pg.Off+pg.Len]
		want := binary.LittleEndian.Uint32(b.data[pg.Off+pg.Len:])
		if crc32.Checksum(payload, blockCRCTable) != want {
			return nil, fmt.Errorf("%w: page %q checksum", ErrBadBlock, name)
		}
		return payload, nil
	}
	return nil, fmt.Errorf("%w: no page %q", ErrBadBlock, name)
}

// Dict decodes a dictionary column: the interned entries and one entry
// index per row.
func (b *Block) Dict(name string) (entries []string, rows []uint32, err error) {
	p, err := b.page(name)
	if err != nil {
		return nil, nil, err
	}
	n, off := binary.Uvarint(p)
	if off <= 0 || n > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%w: dict %q entry count", ErrBadBlock, name)
	}
	entries = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(p[off:])
		if sz <= 0 || l > uint64(len(p)-off-sz) {
			return nil, nil, fmt.Errorf("%w: dict %q entry", ErrBadBlock, name)
		}
		off += sz
		entries = append(entries, string(p[off:off+int(l)]))
		off += int(l)
	}
	rows = make([]uint32, 0, b.ft.Rows)
	for i := 0; i < b.ft.Rows; i++ {
		v, sz := binary.Uvarint(p[off:])
		if sz <= 0 || v >= uint64(len(entries)) {
			return nil, nil, fmt.Errorf("%w: dict %q row %d", ErrBadBlock, name, i)
		}
		off += sz
		rows = append(rows, uint32(v))
	}
	return entries, rows, nil
}

// Ints decodes an integer column into dst (reused when its capacity holds
// every row, allocated at that capacity otherwise), undoing the delta
// encoding where the column used it.
func (b *Block) Ints(name string, dst []int64) ([]int64, error) {
	var delta bool
	found := false
	for _, c := range telemetry.IntColumns() {
		if c.Name == name {
			delta, found = c.Delta, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: no int column %q", ErrBadBlock, name)
	}
	p, err := b.page(name)
	if err != nil {
		return nil, err
	}
	if cap(dst) < b.ft.Rows {
		dst = make([]int64, 0, b.ft.Rows)
	}
	dst = dst[:0]
	var prev int64
	off := 0
	for i := 0; i < b.ft.Rows; i++ {
		u, sz := binary.Uvarint(p[off:])
		if sz <= 0 {
			return nil, fmt.Errorf("%w: int %q row %d", ErrBadBlock, name, i)
		}
		off += sz
		v := unzigzag(u)
		if delta {
			v += prev
			prev = v
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// Raws returns the verbatim journal lines of non-canonical rows, keyed by
// row index.
func (b *Block) Raws() (map[int][]byte, error) {
	p, err := b.page("raw")
	if err != nil {
		return nil, err
	}
	n, off := binary.Uvarint(p)
	if off <= 0 || n > uint64(len(p)) {
		return nil, fmt.Errorf("%w: raw count", ErrBadBlock)
	}
	raws := make(map[int][]byte, n)
	for i := uint64(0); i < n; i++ {
		row, sz := binary.Uvarint(p[off:])
		if sz <= 0 || row > uint64(b.ft.Rows) {
			return nil, fmt.Errorf("%w: raw row", ErrBadBlock)
		}
		off += sz
		l, sz := binary.Uvarint(p[off:])
		if sz <= 0 || l > uint64(len(p)-off-sz) {
			return nil, fmt.Errorf("%w: raw length", ErrBadBlock)
		}
		off += sz
		raws[int(row)] = p[off : off+int(l)]
		off += int(l)
	}
	return raws, nil
}

// Export writes every row back as journal JSONL in row order: canonical
// rows re-render from their columns, raw rows emit their stored bytes.
// The result is byte-identical to the lines the block was built from.
func (b *Block) Export(w io.Writer) error {
	return newColBlock(b).export(w)
}

// dictColumn is a decoded dictionary column.
type dictColumn struct {
	entries []string
	rows    []uint32
}

// colBlock is the read path's view of a block. Each page decodes, after
// its CRC checks, on first use and is kept, so a query pays only for the
// pages it reads and a repeat query for none. It is what the Store's cache
// holds, shared by concurrent queries: decoded pages are never modified.
type colBlock struct {
	*Block
	// owner is the cache holding the block, if any: told the bytes each
	// decoded page adds, and to drop the block when a page fails.
	owner *blockCache
	path  string

	mu    sync.Mutex
	dicts map[string]dictColumn
	ints  [][]int64      // telemetry.IntColumns order; nil until decoded
	raws  map[int][]byte // nil until decoded
}

func newColBlock(b *Block) *colBlock {
	return &colBlock{Block: b, dicts: map[string]dictColumn{}, ints: make([][]int64, len(telemetry.IntColumns()))}
}

// dict returns the named dictionary column, decoding it on first use.
func (cb *colBlock) dict(name string) (dictColumn, error) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if d, ok := cb.dicts[name]; ok {
		return d, nil
	}
	entries, rows, err := cb.Dict(name)
	if err != nil {
		return dictColumn{}, cb.failedLocked(err)
	}
	d := dictColumn{entries: entries, rows: rows}
	cb.dicts[name] = d
	size := int64(len(rows)) * 4
	for _, e := range entries {
		size += int64(len(e)) + 16
	}
	cb.grewLocked(size)
	return d, nil
}

// col returns the named integer column, decoding it on first use.
func (cb *colBlock) col(name string) ([]int64, error) {
	for i, c := range telemetry.IntColumns() {
		if c.Name == name {
			return cb.colAt(i)
		}
	}
	return nil, fmt.Errorf("%w: no int column %q", ErrBadBlock, name)
}

// colAt returns integer column i, in telemetry.IntColumns order.
func (cb *colBlock) colAt(i int) ([]int64, error) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if v := cb.ints[i]; v != nil {
		return v, nil
	}
	v, err := cb.Ints(telemetry.IntColumns()[i].Name, nil)
	if err != nil {
		return nil, cb.failedLocked(err)
	}
	cb.ints[i] = v
	cb.grewLocked(int64(cap(v)) * 8)
	return v, nil
}

// rawLines returns the verbatim lines of non-canonical rows, decoding the
// raw page on first use. The lines alias the block's file bytes.
func (cb *colBlock) rawLines() (map[int][]byte, error) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if cb.raws != nil {
		return cb.raws, nil
	}
	raws, err := cb.Raws()
	if err != nil {
		return nil, cb.failedLocked(err)
	}
	cb.raws = raws
	cb.grewLocked(int64(len(raws)) * 48)
	return raws, nil
}

func (cb *colBlock) grewLocked(n int64) {
	if cb.owner != nil {
		cb.owner.grow(cb, n)
	}
}

// failedLocked drops the block from its cache, so the next query reads
// the file again rather than the bytes that failed, and returns err.
func (cb *colBlock) failedLocked(err error) error {
	if cb.owner != nil {
		cb.owner.drop(cb)
	}
	return err
}

// export writes every row as journal JSONL; see Block.Export.
func (cb *colBlock) export(w io.Writer) error {
	kind, err := cb.dict("kind")
	if err != nil {
		return err
	}
	session, err := cb.dict("session")
	if err != nil {
		return err
	}
	label, err := cb.dict("label")
	if err != nil {
		return err
	}
	intCols := telemetry.IntColumns()
	ints := make([][]int64, len(intCols))
	for i := range intCols {
		if ints[i], err = cb.colAt(i); err != nil {
			return err
		}
	}
	raws, err := cb.rawLines()
	if err != nil {
		return err
	}
	kinds := make([]telemetry.Kind, len(kind.entries))
	for i, name := range kind.entries {
		kinds[i], _ = telemetry.ParseKind(name)
	}
	var buf []byte
	var e telemetry.Event
	for i := 0; i < cb.Rows(); i++ {
		line, ok := raws[i]
		if !ok {
			e = telemetry.Event{
				Kind:    kinds[kind.rows[i]],
				Session: session.entries[session.rows[i]],
				Label:   label.entries[label.rows[i]],
			}
			for ci, c := range intCols {
				c.Set(&e, ints[ci][i])
			}
			buf = telemetry.AppendJSONL(buf[:0], e)
			line = buf
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// blockCacheBytes is the budget of a Store's block cache: the file bytes
// of every cached block plus the pages its queries decoded. A default
// 65 536-row block is about 2 MiB on disk and 9 MiB with every page
// decoded, so the cache holds the last six or seven such blocks queried
// in full, more when queries read only a few columns.
const blockCacheBytes = 64 << 20

// fileID is what the cache knows a block file by besides its path: a
// file replaced or rewritten under the same name changes size or mtime,
// and its entry is then never served.
type fileID struct {
	size, mtimeNS int64
}

// blockCache is an LRU of blocks under a byte budget. Its lock is held
// only for map and list updates, never while reading or decoding.
type blockCache struct {
	budget int64

	mu      sync.Mutex
	used    int64
	lru     list.List // of *cacheEntry, most recently used first
	entries map[string]*list.Element
}

type cacheEntry struct {
	id   fileID
	cb   *colBlock
	size int64 // file bytes plus decoded pages
}

func newBlockCache(budget int64) *blockCache {
	return &blockCache{budget: budget, entries: make(map[string]*list.Element)}
}

// get returns the cached block for path if it was read from the file id
// identifies. An entry for another identity is dropped.
func (c *blockCache) get(path string, id fileID) *colBlock {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[path]
	if !ok {
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.id != id {
		c.removeLocked(el)
		return nil
	}
	c.lru.MoveToFront(el)
	return e.cb
}

// put caches cb, read from the file id identifies at path, before any
// other goroutine can see cb. Its file bytes count against the budget at
// once, its pages as they decode. A block larger than the whole budget is
// not cached.
func (c *blockCache) put(path string, id fileID, cb *colBlock) {
	size := int64(len(cb.data))
	if size > c.budget {
		return
	}
	cb.owner, cb.path = c, path
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[path]; ok {
		c.removeLocked(el)
	}
	c.entries[path] = c.lru.PushFront(&cacheEntry{id: id, cb: cb, size: size})
	c.used += size
	c.evictLocked()
}

// grow adds n decoded bytes to cb's entry, if cb is still cached, and
// evicts least recently used blocks past the budget.
func (c *blockCache) grow(cb *colBlock, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[cb.path]; ok && el.Value.(*cacheEntry).cb == cb {
		el.Value.(*cacheEntry).size += n
		c.used += n
		c.evictLocked()
	}
}

// drop removes cb from the cache, if it is still there.
func (c *blockCache) drop(cb *colBlock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[cb.path]; ok && el.Value.(*cacheEntry).cb == cb {
		c.removeLocked(el)
	}
}

func (c *blockCache) evictLocked() {
	for c.used > c.budget && c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back())
	}
}

func (c *blockCache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.entries, e.cb.path)
	c.used -= e.size
}
