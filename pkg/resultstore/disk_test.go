package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

func openDisk(t *testing.T, dir string, cfg DiskConfig) *Disk {
	t.Helper()
	cfg.Dir = dir
	d, err := OpenDisk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func segments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

func TestDiskRoundTrip(t *testing.T) {
	d := openDisk(t, t.TempDir(), DiskConfig{})
	mustSet(t, d, "a", "alpha")
	mustSet(t, d, "b", "beta")
	if v, ok := mustGet(t, d, "a"); !ok || string(v) != "alpha" {
		t.Errorf("a = %q %v", v, ok)
	}
	if v, ok := mustGet(t, d, "b"); !ok || string(v) != "beta" {
		t.Errorf("b = %q %v", v, ok)
	}
	if _, ok := mustGet(t, d, "missing"); ok {
		t.Error("missing key hit")
	}
	st := d.Stats()[0]
	if st.Tier != "disk" || st.Entries != 2 || st.Hits != 2 || st.Misses != 1 || st.Sets != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes == 0 {
		t.Error("stats report 0 bytes on disk")
	}
}

// appendRaw appends framed records straight to a segment file, the way
// a directory written before the write-once rule can hold a second
// record for a key.
func appendRaw(t *testing.T, path string, recs ...[]byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := f.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskKillAndReopen is the crash-safety round trip: everything
// written before Close (standing in for a process death — no flush
// path exists besides the appends themselves) is served after reopening
// the same directory.
func TestDiskKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i)
		mustSet(t, d, k, v)
		want[k] = v
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A duplicate record for a key: the newest record must win after
	// replay.
	appendRaw(t, segments(t, dir)[0], encodeRecord("key-7", []byte("rewritten")))
	want["key-7"] = "rewritten"

	re := openDisk(t, dir, DiskConfig{})
	if re.Len() != len(want) {
		t.Fatalf("reopened store has %d entries, want %d", re.Len(), len(want))
	}
	for k, v := range want {
		got, ok := mustGet(t, re, k)
		if !ok || string(got) != v {
			t.Errorf("%s = %q %v, want %q", k, got, ok, v)
		}
	}
	// The reopened store keeps accepting writes.
	mustSet(t, re, "post-restart", "ok")
	if v, ok := mustGet(t, re, "post-restart"); !ok || string(v) != "ok" {
		t.Errorf("post-restart write lost: %q %v", v, ok)
	}
}

// TestDiskTruncatedTailRecovery chops bytes off the last segment —
// simulating a crash mid-append — and asserts replay recovers every
// record before the torn one and the store accepts appends again.  The
// chop length comes from the seeded corrupter, bounded to the last
// record so each seed tears it somewhere different without reaching the
// intact records.
func TestDiskTruncatedTailRecovery(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			d := openDisk(t, dir, DiskConfig{})
			mustSet(t, d, "intact-1", "one")
			mustSet(t, d, "intact-2", "two")
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			segs := segments(t, dir)
			if len(segs) != 1 {
				t.Fatalf("%d segments, want 1", len(segs))
			}
			intactSize, err := os.Stat(segs[0])
			if err != nil {
				t.Fatal(err)
			}

			re0 := openDisk(t, dir, DiskConfig{})
			mustSet(t, re0, "torn", "this record will lose its tail")
			if err := re0.Close(); err != nil {
				t.Fatal(err)
			}
			full, err := os.Stat(segs[0])
			if err != nil {
				t.Fatal(err)
			}

			// Tear 1..len(last record) bytes off: the torn record is lost
			// (cleanly or mid-byte), everything before it stays intact.
			lastRec := int(full.Size() - intactSize.Size())
			chop := newCorrupter(seed).tornTail(int(full.Size()), lastRec)
			if chop < 1 || chop > lastRec {
				t.Fatalf("chop = %d, want within the %d-byte last record", chop, lastRec)
			}
			if err := os.Truncate(segs[0], full.Size()-int64(chop)); err != nil {
				t.Fatal(err)
			}

			re := openDisk(t, dir, DiskConfig{})
			if v, ok := mustGet(t, re, "intact-1"); !ok || string(v) != "one" {
				t.Errorf("intact-1 = %q %v", v, ok)
			}
			if v, ok := mustGet(t, re, "intact-2"); !ok || string(v) != "two" {
				t.Errorf("intact-2 = %q %v", v, ok)
			}
			if _, ok := mustGet(t, re, "torn"); ok {
				t.Error("torn record served after losing its tail")
			}
			if re.Len() != 2 {
				t.Errorf("recovered %d entries, want 2", re.Len())
			}
			// Appends continue from the truncation point and survive
			// another reopen.
			mustSet(t, re, "after-recovery", "fine")
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			again := openDisk(t, dir, DiskConfig{})
			if v, ok := mustGet(t, again, "after-recovery"); !ok || string(v) != "fine" {
				t.Errorf("after-recovery = %q %v", v, ok)
			}
		})
	}
}

// TestDiskCorruptRecordRecovery flips a byte inside the last record's
// value so the length framing is intact but the CRC fails.  The flip
// offset is drawn by the seeded corrupter, restricted to
// the value region, so each seed lands the corruption somewhere else.
func TestDiskCorruptRecordRecovery(t *testing.T) {
	const badValue = "to be corrupted"
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			d := openDisk(t, dir, DiskConfig{})
			mustSet(t, d, "good", "kept")
			mustSet(t, d, "bad", badValue)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			seg := segments(t, dir)[0]
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			// Flip one byte inside the last record's value — between its
			// framing and its trailing CRC, both left intact.
			from := len(raw) - recTrailerLen - len(badValue)
			if got := newCorrupter(seed).flipByteIn(raw, from, len(raw)-recTrailerLen); got < from {
				t.Fatalf("flipByteIn = %d, want an offset in the value region", got)
			}
			if err := os.WriteFile(seg, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			re := openDisk(t, dir, DiskConfig{})
			if v, ok := mustGet(t, re, "good"); !ok || string(v) != "kept" {
				t.Errorf("good = %q %v", v, ok)
			}
			if _, ok := mustGet(t, re, "bad"); ok {
				t.Error("corrupt record served")
			}
		})
	}
}

// TestDiskRotationAndEviction drives the store past its size cap with
// tiny segments and asserts old segments are evicted, the newest keys
// survive, and the byte accounting respects the cap.
func TestDiskRotationAndEviction(t *testing.T) {
	dir := t.TempDir()
	// Each record is ~8+6+100+4 = 118 bytes; segments hold ~4 records,
	// the store ~4 segments.
	d := openDisk(t, dir, DiskConfig{SegmentBytes: 512, MaxBytes: 2048})
	val := bytes.Repeat([]byte("x"), 100)
	const n = 40
	for i := 0; i < n; i++ {
		if err := d.Set(ctx, fmt.Sprintf("key-%02d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if segs := segments(t, dir); len(segs) < 2 || len(segs) > 5 {
		t.Errorf("%d segments on disk, want rotation into 2..5", len(segs))
	}
	st := d.Stats()[0]
	if st.Bytes > 2048+512 {
		t.Errorf("store holds %d bytes, cap 2048", st.Bytes)
	}
	// The newest keys must have survived; the oldest must be gone.
	if _, ok := mustGet(t, d, fmt.Sprintf("key-%02d", n-1)); !ok {
		t.Error("newest key evicted")
	}
	if _, ok := mustGet(t, d, "key-00"); ok {
		t.Error("oldest key survived a full wrap of the size cap")
	}
	// Eviction state must survive a reopen identically.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir, DiskConfig{SegmentBytes: 512, MaxBytes: 2048})
	if _, ok := mustGet(t, re, fmt.Sprintf("key-%02d", n-1)); !ok {
		t.Error("newest key lost across reopen")
	}
	if _, ok := mustGet(t, re, "key-00"); ok {
		t.Error("evicted key resurrected by reopen")
	}
}

// TestDiskRewrittenKeySurvivesEviction pins the index semantics: a key
// whose newest record lives in a young segment survives the eviction of
// the old segment holding its stale record.
func TestDiskRewrittenKeySurvivesEviction(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("y"), 64)
	filler := func(i int) []byte { return encodeRecord(fmt.Sprintf("filler-%d", i), val) }
	appendRaw(t, filepath.Join(dir, "seg-00000001.log"),
		encodeRecord("pinned", []byte("v1")), filler(0), filler(1), filler(2))
	appendRaw(t, filepath.Join(dir, "seg-00000002.log"),
		filler(3), filler(4), filler(5), encodeRecord("pinned", []byte("v2")))

	d := openDisk(t, dir, DiskConfig{SegmentBytes: 256, MaxBytes: 700})
	if v, ok := mustGet(t, d, "pinned"); !ok || string(v) != "v2" {
		t.Fatalf("pinned after replay = %q %v, want the newest record v2", v, ok)
	}
	// Fill past the cap until the oldest segment is evicted.
	for i := 6; i < 20; i++ {
		if _, ok, _ := d.Peek(ctx, "filler-0"); !ok {
			break
		}
		if err := d.Set(ctx, fmt.Sprintf("filler-%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := mustGet(t, d, "filler-0"); ok {
		t.Fatal("the oldest segment was never evicted")
	}
	if v, ok := mustGet(t, d, "pinned"); !ok || string(v) != "v2" {
		t.Errorf("pinned = %q %v, want v2 to survive its stale record's eviction", v, ok)
	}
}

// TestDiskSecondSetAppendsNothing pins the write-once disk store: a Set
// of an indexed key leaves the segment file and the byte accounting
// unchanged and keeps serving the first value.
func TestDiskSecondSetAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	mustSet(t, d, "key", "first")
	size := func() int64 {
		st, err := os.Stat(segments(t, dir)[0])
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	fileBefore, bytesBefore := size(), d.Stats()[0].Bytes
	mustSet(t, d, "key", "second")
	if got := size(); got != fileBefore {
		t.Errorf("segment grew from %d to %d bytes on a second Set", fileBefore, got)
	}
	if got := d.Stats()[0].Bytes; got != bytesBefore {
		t.Errorf("Bytes moved from %d to %d on a second Set", bytesBefore, got)
	}
	if v, ok := mustGet(t, d, "key"); !ok || string(v) != "first" {
		t.Errorf("key = %q %v, want the first value", v, ok)
	}
	if st := d.Stats()[0]; st.Sets != 2 {
		t.Errorf("sets = %d, want both calls counted", st.Sets)
	}
}

// TestDiskUnreadableRecordIsRestored truncates the segment under an
// open store: the Get of a record that can no longer be read errors and
// drops the index entry, so the next Set writes a fresh record that the
// following Get serves.
func TestDiskUnreadableRecordIsRestored(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	mustSet(t, d, "key", "value")
	if err := os.Truncate(segments(t, dir)[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Get(ctx, "key"); err == nil {
		t.Fatal("Get of a truncated record succeeded")
	}
	if st := d.Stats()[0]; st.Errors != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 error and the entry dropped", st)
	}
	mustSet(t, d, "key", "value")
	if v, ok := mustGet(t, d, "key"); !ok || string(v) != "value" {
		t.Errorf("key after the repairing Set = %q %v", v, ok)
	}
}

// TestDiskRepairSurvivesReopen: after a Get drops a record of the
// truncated active segment, the repairing Set and every later one must
// survive a reopen.  Appending past the truncated end of file would
// leave a zero-filled hole that replay reads as a torn tail.
func TestDiskRepairSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	mustSet(t, d, "key", "value")
	if err := os.Truncate(segments(t, dir)[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Get(ctx, "key"); err == nil {
		t.Fatal("Get of a truncated record succeeded")
	}
	mustSet(t, d, "key", "value")
	mustSet(t, d, "other", "more")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = openDisk(t, dir, DiskConfig{})
	if n := d.Len(); n != 2 {
		t.Errorf("reopened store holds %d entries, want 2", n)
	}
	for key, want := range map[string]string{"key": "value", "other": "more"} {
		if v, ok := mustGet(t, d, key); !ok || string(v) != want {
			t.Errorf("%s after reopen = %q %v, want %q", key, v, ok, want)
		}
	}
}

// TestDiskConcurrent exercises concurrent Get/Set/Stats across
// rotation; the race detector is the assertion.
func TestDiskConcurrent(t *testing.T) {
	d := openDisk(t, t.TempDir(), DiskConfig{SegmentBytes: 1024, MaxBytes: 8192})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%24)
				d.Set(ctx, key, bytes.Repeat([]byte{byte(i)}, 32))
				d.Get(ctx, key)
				d.Stats()
			}
		}(g)
	}
	wg.Wait()
}

func TestDiskClosedErrors(t *testing.T) {
	d := openDisk(t, t.TempDir(), DiskConfig{})
	mustSet(t, d, "a", "1")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Set(ctx, "b", []byte("2")); err == nil {
		t.Error("Set after Close succeeded")
	}
	if _, _, err := d.Get(ctx, "a"); err == nil {
		t.Error("Get after Close succeeded")
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestDiskRequiresDir(t *testing.T) {
	if _, err := OpenDisk(DiskConfig{}); err == nil {
		t.Error("OpenDisk without a directory succeeded")
	}
}

// TestDiskSingleOwner asserts a directory cannot be opened by two live
// stores at once (interleaved appends would corrupt the active
// segment), and that closing the first owner frees the lock.
func TestDiskSingleOwner(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	if second, err := OpenDisk(DiskConfig{Dir: dir}); err == nil {
		second.Close()
		t.Fatal("second OpenDisk of a live directory succeeded")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close failed: %v", err)
	}
	re.Close()
}
