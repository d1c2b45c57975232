// Package store implements the disk-backed content-addressed store
// behind the persistent cache tier (core.Cache) and the service's
// write-ahead job log (internal/service). It is log-structured:
// records append to fixed-capacity segment files, an in-memory key
// index is rebuilt by scanning the segments on Open, and retention is
// bounded by deleting whole oldest segments once the directory
// exceeds its size budget.
//
// On-disk format (all integers little-endian):
//
//	<dir>/0000000000000001-9f2c41aa.seg
//	<dir>/0000000000000002-9f2c41aa.seg     newest = active, append-only
//	...
//
// Segment names carry the creating store's random owner nonce, and
// every store holds a flock on its active segment, so several
// processes can share one directory: each appends to its own active
// segment, and Open only adopts (and tail-truncates) the newest
// segment when its flock succeeds — i.e. when no live peer owns it —
// otherwise it reads the peer's records and appends to a fresh
// segment of its own. Peers see each other's records from the scan at
// Open time; there is no live cross-process index exchange. Legacy
// nonce-less names still parse and sort first among equals.
//
// Each segment is a sequence of records:
//
//	crc  uint32   Castagnoli CRC-32 of everything after this field
//	klen uint32   key length in bytes
//	vlen uint32   value length in bytes
//	key  [klen]byte
//	val  [vlen]byte
//
// Open replays every segment oldest-first: the last valid write of a
// key wins the index. A structurally torn tail (header or payload
// running past EOF — the shape a crash mid-append leaves) is truncated
// off the final segment and counted; a record whose CRC fails but
// whose framing is intact (bit rot) is skipped and counted, and the
// scan continues at the next record boundary. Keys are indexed by a
// 128-bit FNV digest — constant memory per key regardless of key
// length — and Get re-reads the stored key bytes to rule out digest
// collisions. A cold key costs one index lookup and no disk read.
//
// All methods are safe for concurrent use. The zero Store is not
// usable; construct with Open.
package store

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Get/Put latency histograms in the process-wide registry: the store
// serves both the cache's persistent tier and the job WAL, so its
// latency distribution is the first place a slow suite's disk story
// shows up in /metrics.
var (
	getHist = obs.Default.Histogram("ax_store_get_duration_seconds",
		"Persistent store Get latency in seconds (includes misses).")
	putHist = obs.Default.Histogram("ax_store_put_duration_seconds",
		"Persistent store Put (append + index) latency in seconds.")
)

const (
	headerSize = 12
	// maxRecordLen bounds a single key or value; anything larger in a
	// header is treated as corruption, which keeps a flipped length
	// byte from making the scanner leap gigabytes ahead.
	maxRecordLen = 1 << 30

	segSuffix           = ".seg"
	defaultSegmentBytes = 8 << 20
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open. The zero value (plus Dir) selects the
// defaults.
type Options struct {
	// Dir is the segment directory, created if absent.
	Dir string
	// SegmentBytes is the rotation threshold for the active segment
	// (default 8 MiB). Retention granularity is whole segments, so
	// smaller segments give finer GC at the cost of more files.
	SegmentBytes int64
	// MaxBytes bounds the total size of all segments; 0 means
	// unbounded. When a rotation pushes the directory over the bound,
	// oldest segments are deleted whole — log-structured GC with cache
	// semantics: cold keys whose only record lived there are gone.
	MaxBytes int64
	// Sync fsyncs the active segment after every Put. The write-ahead
	// job log wants it; the cache tier (whose contents are
	// recomputable) does not.
	Sync bool
}

// Stats is a point-in-time snapshot of a store's counters.
// Hit/miss/corruption/GC counters are lifetime-monotone; Keys,
// Segments, and DiskBytes are gauges.
type Stats struct {
	// Hits / Misses count Get outcomes.
	Hits   int64
	Misses int64
	// CorruptRecords counts CRC-failed or unframeable records skipped
	// during Open scans and Get reads.
	CorruptRecords int64
	// TruncatedTails counts torn segment tails chopped off on Open —
	// the expected trace of a crash mid-append.
	TruncatedTails int64
	// GCEvictedRecords / GCEvictedSegments count index entries and
	// whole segments dropped by size-bounded retention.
	GCEvictedRecords  int64
	GCEvictedSegments int64
	// Puts / BytesWritten count appends.
	Puts         int64
	BytesWritten int64
	// Keys is the live index size; Segments and DiskBytes describe the
	// on-disk footprint right now.
	Keys      int64
	Segments  int64
	DiskBytes int64
}

type digest [16]byte

// loc locates one live record.
type loc struct {
	seg  *segment
	off  int64
	klen uint32
	vlen uint32
}

type segment struct {
	id     uint64
	nonce  string // creating store's owner nonce; "" on legacy files
	path   string
	f      *os.File
	size   int64
	locked bool // this store holds the segment's flock
}

// Store is a disk-backed content-addressed key/value store. See the
// package comment for the on-disk format and recovery semantics.
type Store struct {
	dir      string
	nonce    string // this store's segment-name owner nonce
	segBytes int64
	maxBytes int64
	syncPut  bool

	mu    sync.RWMutex
	index map[digest]loc
	segs  []*segment // ascending id; the last is the active one

	hits, misses          atomic.Int64
	corrupt, truncated    atomic.Int64
	gcRecords, gcSegments atomic.Int64
	puts, bytesWritten    atomic.Int64
}

// Open creates or reopens the store at o.Dir, rebuilding the index
// from the segment files. Torn tails are truncated,
// corrupt records skipped (both counted in Stats), so a store that was
// killed mid-append reopens to every record that was fully written.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      o.Dir,
		segBytes: o.SegmentBytes,
		maxBytes: o.MaxBytes,
		syncPut:  o.Sync,
		index:    make(map[digest]loc),
	}
	var nb [4]byte
	if _, err := crand.Read(nb[:]); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.nonce = hex.EncodeToString(nb[:])

	refs, err := listSegments(o.Dir)
	if err != nil {
		return nil, err
	}
	// Only the newest segment is adoptable as this store's active
	// segment, and only when no live peer process holds its flock:
	// adoption truncates the torn tail a crash leaves, which on a
	// peer's segment would chop off an append in flight.
	adopted := false
	for i, ref := range refs {
		seg, err := s.openSegment(ref, i == len(refs)-1)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.segs = append(s.segs, seg)
		if i == len(refs)-1 && seg.locked {
			adopted = true
		}
	}
	if !adopted {
		next := uint64(1)
		if len(refs) > 0 {
			next = refs[len(refs)-1].id + 1
		}
		seg, err := s.createSegment(next)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	return s, nil
}

// segRef names one segment file: numeric id plus the creating store's
// owner nonce ("" on legacy nonce-less files).
type segRef struct {
	id    uint64
	nonce string
}

func listSegments(dir string) ([]segRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var refs []segRef
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base := strings.TrimSuffix(name, segSuffix)
		idPart, nonce, _ := strings.Cut(base, "-")
		id, err := strconv.ParseUint(idPart, 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		refs = append(refs, segRef{id: id, nonce: nonce})
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].id != refs[j].id {
			return refs[i].id < refs[j].id
		}
		return refs[i].nonce < refs[j].nonce
	})
	return refs, nil
}

func segPath(dir string, ref segRef) string {
	if ref.nonce == "" {
		return filepath.Join(dir, fmt.Sprintf("%016d%s", ref.id, segSuffix))
	}
	return filepath.Join(dir, fmt.Sprintf("%016d-%s%s", ref.id, ref.nonce, segSuffix))
}

// createSegment makes a fresh, empty, flocked segment owned by this
// store. O_EXCL plus the nonce in the name makes racing creators land
// on distinct files.
func (s *Store) createSegment(id uint64) (*segment, error) {
	path := segPath(s.dir, segRef{id: id, nonce: s.nonce})
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if !flockTry(f.Fd()) {
		f.Close()
		return nil, fmt.Errorf("store: cannot lock fresh segment %s", path)
	}
	return &segment{id: id, nonce: s.nonce, path: path, f: f, locked: true}, nil
}

// openSegment reads one existing segment into the index. A torn tail —
// the trace of a crash mid-append — is physically truncated off the
// newest segment when its flock succeeds (no live peer owns it; it
// becomes this store's active segment again). A tail on a live peer's
// segment is an append in flight, skipped without counting; on an
// older dead segment it is abandoned and counted corrupt.
func (s *Store) openSegment(ref segRef, last bool) (*segment, error) {
	path := segPath(s.dir, ref)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	locked := flockTry(f.Fd())
	buf, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	seg := &segment{id: ref.id, nonce: ref.nonce, path: path, f: f, size: int64(len(buf)), locked: locked}
	adopt := last && locked
	if locked && !adopt {
		// Old dead segments stay read-only; holding their lock would
		// only stop a peer from classifying them as dead too.
		funlock(f.Fd())
		seg.locked = false
	}

	off := 0
	for off < len(buf) {
		key, _, end, ok := parseRecord(buf, off)
		if !ok {
			if end < 0 { // structurally torn: nothing parseable follows
				switch {
				case adopt:
					s.truncated.Add(1)
					seg.size = int64(off)
					if err := f.Truncate(seg.size); err != nil {
						f.Close()
						return nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
					}
				case locked:
					s.corrupt.Add(1)
				}
				// A live peer's tail (lock refused) is an append in
				// flight, not corruption.
				break
			}
			// Framing intact but CRC failed: bit rot, or a torn final
			// value. At the very end of the adopted segment, treat it as
			// a torn write and truncate; mid-file, skip to the next
			// record.
			if adopt && end == len(buf) {
				s.truncated.Add(1)
				seg.size = int64(off)
				if err := f.Truncate(seg.size); err != nil {
					f.Close()
					return nil, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
				}
				break
			}
			if !locked && end == len(buf) {
				break // live peer's final value, mid-append
			}
			s.corrupt.Add(1)
			off = end
			continue
		}
		vlen := uint32(end-off-headerSize) - uint32(len(key))
		s.installLocked(key, loc{seg: seg, off: int64(off), klen: uint32(len(key)), vlen: vlen})
		off = end
	}
	return seg, nil
}

// parseRecord frames one record at off. ok reports a valid record;
// end is the offset just past it. end < 0 means the remaining bytes
// cannot frame a record at all (torn tail).
func parseRecord(buf []byte, off int) (key, val []byte, end int, ok bool) {
	rem := len(buf) - off
	if rem < headerSize {
		return nil, nil, -1, false
	}
	crc := binary.LittleEndian.Uint32(buf[off:])
	klen := binary.LittleEndian.Uint32(buf[off+4:])
	vlen := binary.LittleEndian.Uint32(buf[off+8:])
	if klen == 0 || klen > maxRecordLen || vlen > maxRecordLen ||
		int64(klen)+int64(vlen) > int64(rem-headerSize) {
		return nil, nil, -1, false
	}
	end = off + headerSize + int(klen) + int(vlen)
	body := buf[off+4 : end]
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, nil, end, false
	}
	key = buf[off+headerSize : off+headerSize+int(klen)]
	val = buf[off+headerSize+int(klen) : end]
	return key, val, end, true
}

func digestOf(key string) digest {
	h := fnv.New128a()
	io.WriteString(h, key)
	var d digest
	h.Sum(d[:0])
	return d
}

func (s *Store) installLocked(key []byte, l loc) {
	s.index[digestOf(string(key))] = l
}

// Put appends one record and makes it the key's live value. Values are
// copied to disk immediately; durability additionally needs
// Options.Sync (or a clean Close).
func (s *Store) Put(key string, val []byte) error {
	defer putHist.Time()()
	if key == "" {
		return errors.New("store: empty key")
	}
	if len(key) > maxRecordLen || len(val) > maxRecordLen {
		return fmt.Errorf("store: record too large (%d-byte key, %d-byte value)", len(key), len(val))
	}
	rec := make([]byte, headerSize+len(key)+len(val))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(val)))
	copy(rec[headerSize:], key)
	copy(rec[headerSize+len(key):], val)
	binary.LittleEndian.PutUint32(rec, crc32.Checksum(rec[4:], castagnoli))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segs == nil {
		return ErrClosed
	}
	active := s.segs[len(s.segs)-1]
	if _, err := active.f.WriteAt(rec, active.size); err != nil {
		// The partial bytes (if any) sit past active.size and will be
		// overwritten by the next append or truncated on reopen.
		return fmt.Errorf("store: %w", err)
	}
	if s.syncPut {
		if err := active.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	off := active.size
	active.size += int64(len(rec))
	s.installLocked([]byte(key), loc{seg: active, off: off, klen: uint32(len(key)), vlen: uint32(len(val))})
	s.puts.Add(1)
	s.bytesWritten.Add(int64(len(rec)))
	if active.size >= s.segBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) rotateLocked() error {
	next := s.segs[len(s.segs)-1].id + 1
	seg, err := s.createSegment(next)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, seg)
	s.gcLocked()
	return nil
}

// gcLocked enforces the size bound by deleting whole oldest segments.
// The active segment is never deleted.
func (s *Store) gcLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for len(s.segs) > 1 && s.totalLocked() > s.maxBytes {
		victim := s.segs[0]
		var dropped int64
		for d, l := range s.index {
			if l.seg == victim {
				delete(s.index, d)
				dropped++
			}
		}
		victim.f.Close()
		os.Remove(victim.path)
		s.segs = s.segs[1:]
		s.gcRecords.Add(dropped)
		s.gcSegments.Add(1)
	}
}

func (s *Store) totalLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// Get returns a copy-free view of the key's live value (the returned
// slice is freshly read and owned by the caller). A missing key, a
// record that fails its CRC on read, or a digest collision with a
// different key all report !ok.
func (s *Store) Get(key string) ([]byte, bool) {
	defer getHist.Time()()
	d := digestOf(key)
	s.mu.RLock()
	if s.segs == nil {
		s.mu.RUnlock()
		s.misses.Add(1)
		return nil, false
	}
	l, ok := s.index[d]
	if !ok {
		s.mu.RUnlock()
		s.misses.Add(1)
		return nil, false
	}
	buf := make([]byte, headerSize+int(l.klen)+int(l.vlen))
	_, readErr := l.seg.f.ReadAt(buf, l.off)
	s.mu.RUnlock()
	if readErr != nil {
		s.misses.Add(1)
		s.corrupt.Add(1)
		return nil, false
	}
	gotKey, val, _, ok := parseRecord(buf, 0)
	if !ok {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	if string(gotKey) != key { // digest collision
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return val, true
}

// Has reports whether the key is live, without touching disk.
// Subject to the same digest-collision caveat as the index itself:
// a false positive is possible (and astronomically unlikely); Get is
// authoritative.
func (s *Store) Has(key string) bool {
	d := digestOf(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.segs == nil {
		return false
	}
	_, ok := s.index[d]
	return ok
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Scan walks every valid record in append order — including records
// later superseded by a newer write of the same key — and calls fn for
// each; a non-nil error from fn stops the walk and is returned. This
// is the write-ahead-log replay primitive: callers that append events
// under distinct keys see them back in exactly the order they were
// written. fn must not call back into the store.
func (s *Store) Scan(fn func(key string, val []byte) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.segs == nil {
		return ErrClosed
	}
	for _, seg := range s.segs {
		buf := make([]byte, seg.size)
		if _, err := seg.f.ReadAt(buf, 0); err != nil && err != io.EOF {
			return fmt.Errorf("store: %w", err)
		}
		off := 0
		for off < len(buf) {
			key, val, end, ok := parseRecord(buf, off)
			if !ok {
				if end < 0 {
					break // already counted at Open
				}
				off = end
				continue
			}
			if err := fn(string(key), val); err != nil {
				return err
			}
			off = end
		}
	}
	return nil
}

// Stats snapshots the store's counters. Each field is read
// independently, which is all a metrics scrape needs.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	keys := int64(len(s.index))
	segs := int64(len(s.segs))
	bytes := s.totalLocked()
	s.mu.RUnlock()
	return Stats{
		Hits:              s.hits.Load(),
		Misses:            s.misses.Load(),
		CorruptRecords:    s.corrupt.Load(),
		TruncatedTails:    s.truncated.Load(),
		GCEvictedRecords:  s.gcRecords.Load(),
		GCEvictedSegments: s.gcSegments.Load(),
		Puts:              s.puts.Load(),
		BytesWritten:      s.bytesWritten.Load(),
		Keys:              keys,
		Segments:          segs,
		DiskBytes:         bytes,
	}
}

// Close syncs and closes every segment. Further operations return
// ErrClosed (Get/Has report misses).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, seg := range s.segs {
		if err := seg.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.segs = nil
	s.index = nil
	return firstErr
}
