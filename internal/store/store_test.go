package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

func open(t *testing.T, o Options) *Store {
	t.Helper()
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key string, val []byte) {
	t.Helper()
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Options{Dir: dir})
	for i := 0; i < 100; i++ {
		mustPut(t, s, fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	// Overwrites: the latest write must win, both live and after reopen.
	mustPut(t, s, "key-007", []byte("bond"))
	if v, ok := s.Get("key-007"); !ok || string(v) != "bond" {
		t.Fatalf("overwritten key = %q, %v", v, ok)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100 (overwrite must not add a key)", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open(t, Options{Dir: dir})
	if r.Len() != 100 {
		t.Fatalf("reopened Len = %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		want := fmt.Sprintf("value-%d", i)
		if i == 7 {
			want = "bond"
		}
		v, ok := r.Get(key)
		if !ok || string(v) != want {
			t.Fatalf("reopened Get(%s) = %q, %v; want %q", key, v, ok, want)
		}
	}
	st := r.Stats()
	if st.CorruptRecords != 0 || st.TruncatedTails != 0 {
		t.Fatalf("clean reopen reported corruption: %+v", st)
	}
	// The reopened store keeps appending into the recovered segment.
	mustPut(t, r, "post-reopen", []byte("x"))
	if _, ok := r.Get("post-reopen"); !ok {
		t.Fatal("append after reopen lost")
	}
}

func TestColdKeys(t *testing.T) {
	s := open(t, Options{Dir: t.TempDir()})
	mustPut(t, s, "present", []byte("v"))
	for i := 0; i < 50; i++ {
		if _, ok := s.Get(fmt.Sprintf("absent-%d", i)); ok {
			t.Fatal("absent key reported present")
		}
	}
	st := s.Stats()
	if st.Misses != 50 {
		t.Fatalf("misses = %d, want 50", st.Misses)
	}
	if !s.Has("present") || s.Has("absent-0") {
		t.Fatal("Has disagrees with contents")
	}
}

// BenchmarkGetMiss times a Get for a key the store does not hold, on
// an index of 10k live keys: one digest and one map lookup, no disk
// read.
func BenchmarkGetMiss(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < 10000; i++ {
		if err := s.Put(fmt.Sprintf("live-%d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("absent-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)]); ok {
			b.Fatal("absent key reported present")
		}
	}
}

// TestTornTailRecovered is the crash fixture: the process dies
// mid-append, leaving a truncated record at the segment tail. Reopen
// must chop the torn record, keep every prior key, and leave the store
// appendable.
func TestTornTailRecovered(t *testing.T) {
	for _, cut := range []struct {
		name string
		keep func(recLen int) int // bytes of the final record that hit disk
	}{
		{"mid-header", func(n int) int { return headerSize / 2 }},
		{"mid-key", func(n int) int { return headerSize + 2 }},
		{"mid-value", func(n int) int { return n - 3 }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, Options{Dir: dir})
			for i := 0; i < 10; i++ {
				mustPut(t, s, fmt.Sprintf("safe-%d", i), bytes.Repeat([]byte{byte(i)}, 64))
			}
			before, _ := s.segFileSize(t)
			mustPut(t, s, "torn-key", []byte("this record will be half-written"))
			after, path := s.segFileSize(t)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Simulate the crash: only a prefix of the last append
			// reached disk.
			recLen := int(after - before)
			if err := os.Truncate(path, before+int64(cut.keep(recLen))); err != nil {
				t.Fatal(err)
			}

			r := open(t, Options{Dir: dir})
			st := r.Stats()
			if st.TruncatedTails != 1 {
				t.Fatalf("truncated tails = %d, want 1 (%+v)", st.TruncatedTails, st)
			}
			if _, ok := r.Get("torn-key"); ok {
				t.Fatal("torn record served")
			}
			for i := 0; i < 10; i++ {
				if _, ok := r.Get(fmt.Sprintf("safe-%d", i)); !ok {
					t.Fatalf("prior key safe-%d lost to tail truncation", i)
				}
			}
			// The truncation is physical: a rewrite of the same key and a
			// further reopen must both be clean.
			mustPut(t, r, "torn-key", []byte("rewritten"))
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2 := open(t, Options{Dir: dir})
			if v, ok := r2.Get("torn-key"); !ok || string(v) != "rewritten" {
				t.Fatalf("post-recovery rewrite = %q, %v", v, ok)
			}
			if st := r2.Stats(); st.TruncatedTails != 0 || st.CorruptRecords != 0 {
				t.Fatalf("second reopen not clean: %+v", st)
			}
		})
	}
}

// segFileSize returns the active segment's current size and path.
func (s *Store) segFileSize(t *testing.T) (int64, string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	active := s.segs[len(s.segs)-1]
	return active.size, active.path
}

// TestCorruptRecordSkipped flips value bytes of a mid-file record: the
// reopen scan must skip exactly that record (counting it) and index
// everything around it.
func TestCorruptRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Options{Dir: dir})
	var offsets []int64
	for i := 0; i < 5; i++ {
		before, _ := s.segFileSize(t)
		offsets = append(offsets, before)
		mustPut(t, s, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{'a' + byte(i)}, 32))
	}
	_, path := s.segFileSize(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside record 2's value region (past header + key).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[2]+headerSize+4] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, Options{Dir: dir})
	st := r.Stats()
	if st.CorruptRecords != 1 {
		t.Fatalf("corrupt records = %d, want 1 (%+v)", st.CorruptRecords, st)
	}
	if st.TruncatedTails != 0 {
		t.Fatalf("mid-file corruption must not truncate the tail: %+v", st)
	}
	if _, ok := r.Get("k2"); ok {
		t.Fatal("corrupt record served")
	}
	for _, k := range []string{"k0", "k1", "k3", "k4"} {
		if _, ok := r.Get(k); !ok {
			t.Fatalf("key %s lost around the corrupt record", k)
		}
	}
}

func TestRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	// ~200-byte records, 1 KiB segments, 4 KiB total: old segments must
	// be deleted as new ones rotate in.
	s := open(t, Options{Dir: dir, SegmentBytes: 1 << 10, MaxBytes: 4 << 10})
	val := bytes.Repeat([]byte{0xAB}, 180)
	for i := 0; i < 60; i++ {
		mustPut(t, s, fmt.Sprintf("rec-%03d", i), val)
	}
	st := s.Stats()
	if st.GCEvictedSegments == 0 || st.GCEvictedRecords == 0 {
		t.Fatalf("no GC under a 4 KiB bound: %+v", st)
	}
	if st.DiskBytes > 5<<10 {
		t.Fatalf("disk footprint %d exceeds bound + one segment", st.DiskBytes)
	}
	// The newest records always survive; the oldest were evicted.
	if _, ok := s.Get("rec-059"); !ok {
		t.Fatal("newest record evicted")
	}
	if _, ok := s.Get("rec-000"); ok {
		t.Fatal("oldest record survived a 4 KiB bound over ~12 KiB of writes")
	}
	// GC'd state must survive reopen: deleted segments stay deleted.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, Options{Dir: dir, SegmentBytes: 1 << 10, MaxBytes: 4 << 10})
	if _, ok := r.Get("rec-059"); !ok {
		t.Fatal("newest record lost across reopen after GC")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(files) > 6 {
		t.Fatalf("%d segment files on disk after GC", len(files))
	}
}

func TestScanAppendOrder(t *testing.T) {
	s := open(t, Options{Dir: t.TempDir(), SegmentBytes: 1 << 9})
	var want []string
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("ev/%04d", i)
		mustPut(t, s, k, []byte{byte(i)})
		want = append(want, k)
	}
	// A superseding write appears again, later in the scan.
	mustPut(t, s, "ev/0000", []byte{99})
	want = append(want, "ev/0000")

	var got []string
	var last byte
	err := s.Scan(func(key string, val []byte) error {
		got = append(got, key)
		last = val[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan yielded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if last != 99 {
		t.Fatalf("superseding write not last in scan (got %d)", last)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := open(t, Options{Dir: t.TempDir(), SegmentBytes: 1 << 12})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := s.Get(key); !ok || string(v) != key {
					t.Errorf("Get(%s) = %q, %v", key, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
}

// TestRecordFraming pins the on-disk record layout documented in the
// package comment, so the format cannot drift silently.
func TestRecordFraming(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Options{Dir: dir})
	mustPut(t, s, "k", []byte("vv"))
	_, path := s.segFileSize(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != headerSize+1+2 {
		t.Fatalf("record length %d, want %d", len(data), headerSize+3)
	}
	if klen := binary.LittleEndian.Uint32(data[4:]); klen != 1 {
		t.Fatalf("klen = %d", klen)
	}
	if vlen := binary.LittleEndian.Uint32(data[8:]); vlen != 2 {
		t.Fatalf("vlen = %d", vlen)
	}
	if string(data[headerSize:headerSize+1]) != "k" || string(data[headerSize+1:]) != "vv" {
		t.Fatalf("payload = %q", data[headerSize:])
	}
	if crc := binary.LittleEndian.Uint32(data); crc != crc32.Checksum(data[4:], castagnoli) {
		t.Fatal("stored CRC does not cover klen|vlen|key|value")
	}
	// Segment names sort lexically in id order and carry the creating
	// store's owner nonce: 0000000000000001-<8 hex>.seg.
	names, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	sort.Strings(names)
	base := filepath.Base(names[0])
	if ok, _ := filepath.Match("0000000000000001-????????.seg", base); !ok {
		t.Fatalf("first segment named %s", base)
	}
}
