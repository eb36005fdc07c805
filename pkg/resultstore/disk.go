package resultstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Disk record framing: every Set of a key the store does not hold
// appends one record to the active segment file —
//
//	u32 keyLen | u32 valLen | key | val | u32 crc32(key ‖ val)
//
// (little-endian, IEEE CRC).  Results are write-once, so a Set of an
// indexed key appends nothing and no record is ever superseded by a
// later one.  Recovery still replays every segment in sequence order
// with the newest record for a key winning, because directories written
// before the write-once rule may hold duplicate records; a torn tail (a
// crash mid-append) fails its length or CRC check and is truncated
// away.
const (
	recHeaderLen  = 8
	recTrailerLen = 4

	// Framing sanity bounds: a replayed length beyond these is
	// corruption, not data.
	maxKeyLen = 1 << 16
	maxValLen = 1 << 30
)

// Default sizing for DiskConfig zero values.
const (
	DefaultMaxBytes     = 256 << 20 // 256 MiB total on disk
	DefaultSegmentBytes = 16 << 20  // 16 MiB per segment
)

// DiskConfig configures a Disk store.
type DiskConfig struct {
	// Dir is the segment directory (created if missing).  Required.
	// A directory is owned by exactly one open Disk store at a time,
	// enforced by an advisory flock on a LOCK file inside it (the lock
	// dies with the process, so a crashed owner never blocks restart).
	Dir string
	// MaxBytes caps the total bytes on disk (0 selects
	// DefaultMaxBytes).  When an append pushes the store past the cap,
	// whole segments are evicted oldest-first — but the active segment
	// is never evicted, so a single oversized value is stored rather
	// than rejected.
	MaxBytes int64
	// SegmentBytes is the rotation threshold (0 selects
	// DefaultSegmentBytes, values above MaxBytes are clamped to it): an
	// append that would grow the active segment past it opens a new
	// segment first.
	SegmentBytes int64
}

// segment is one append-only file.  size is the committed length:
// bytes past it (a torn tail from a failed append) are dead and get
// overwritten by the next append.
type segment struct {
	seq  uint64
	path string
	f    *os.File
	size int64
	// sealed stops appends to an active segment whose file no longer
	// reaches size (a record in it could not be read back): the next
	// Set rotates to a fresh segment instead of writing past the end
	// of the file.
	sealed bool
	// keys lists every key with a record in this segment (duplicates
	// possible in directories replayed from before the write-once rule),
	// so eviction drops exactly its own index entries without scanning
	// the whole index.
	keys []string
}

// diskLoc locates one value inside a segment.
type diskLoc struct {
	seg    *segment
	valOff int64
	valLen uint32
}

// Disk is the crash-safe disk-backed store: append-only segment files
// plus an in-memory index rebuilt on open.
type Disk struct {
	cfg  DiskConfig
	lock *os.File // flock-held LOCK file enforcing one owner per Dir

	// appendMu serializes Sets end to end so each append owns its
	// reserved offset; the WriteAt itself runs outside mu, keeping
	// index lookups (Gets) unblocked by append I/O.
	appendMu sync.Mutex

	mu     sync.RWMutex // guards the fields below
	segs   []*segment   // ascending seq; last is the active (append) segment
	index  map[string]diskLoc
	total  int64
	closed bool

	hits   atomic.Uint64
	misses atomic.Uint64
	sets   atomic.Uint64
	errs   atomic.Uint64
}

var errClosed = errors.New("resultstore: store is closed")

// OpenDisk opens (or creates) the store in cfg.Dir, replaying the
// existing segments into the in-memory index.  Everything a previous
// process wrote before dying is served again; a torn tail record in the
// last segment is detected by its CRC/length framing and truncated.
func OpenDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, errors.New("resultstore: disk store requires a directory")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.SegmentBytes > cfg.MaxBytes {
		cfg.SegmentBytes = cfg.MaxBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: create %s: %w", cfg.Dir, err)
	}
	// A directory has exactly one owner at a time: two processes
	// appending to the same active segment would silently corrupt it.
	// The advisory lock dies with the process, so a crashed owner never
	// blocks a restart.
	lock, err := lockDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	d := &Disk{cfg: cfg, lock: lock, index: map[string]diskLoc{}}

	paths, err := filepath.Glob(filepath.Join(cfg.Dir, "seg-*.log"))
	if err != nil {
		d.Close()
		return nil, err
	}
	type numbered struct {
		seq  uint64
		path string
	}
	var found []numbered
	for _, p := range paths {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "seg-%d.log", &seq); err == nil {
			found = append(found, numbered{seq, p})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seq < found[j].seq })

	for i, n := range found {
		if err := d.replay(n.path, n.seq, i == len(found)-1); err != nil {
			d.Close()
			return nil, err
		}
	}
	if len(d.segs) == 0 {
		if _, err := d.newSegment(1); err != nil {
			d.Close()
			return nil, err
		}
	}
	// The cap may have shrunk across the restart.
	d.enforceCap()
	return d, nil
}

// replay opens one segment and walks its records into the index.  A
// record that fails its *framing* (short header, implausible lengths, a
// body extending past EOF, or a CRC mismatch) marks the rest of the
// segment dead: in the last segment that is the expected torn tail of a
// crash and is truncated away; in an earlier segment the valid prefix
// is kept and the tail is simply not indexed.  A ReadAt I/O *error* is
// not corruption — truncating on it could destroy valid records — so it
// fails the open instead.
func (d *Disk) replay(path string, seq uint64, last bool) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: open segment %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("resultstore: stat segment %s: %w", path, err)
	}
	seg := &segment{seq: seq, path: path, f: f, size: st.Size()}

	var (
		off  int64
		hdr  [recHeaderLen]byte
		size = st.Size()
	)
	for off < size {
		if off+recHeaderLen+recTrailerLen > size {
			break // torn header
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			f.Close()
			return fmt.Errorf("resultstore: replay %s at %d: %w", path, off, err)
		}
		keyLen := binary.LittleEndian.Uint32(hdr[0:4])
		valLen := binary.LittleEndian.Uint32(hdr[4:8])
		if keyLen == 0 || keyLen > maxKeyLen || valLen > maxValLen {
			break // implausible framing: corruption
		}
		bodyLen := int64(keyLen) + int64(valLen) + recTrailerLen
		if off+recHeaderLen+bodyLen > size {
			break // torn body
		}
		body := make([]byte, bodyLen)
		if _, err := f.ReadAt(body, off+recHeaderLen); err != nil {
			f.Close()
			return fmt.Errorf("resultstore: replay %s at %d: %w", path, off, err)
		}
		payload := body[:keyLen+valLen]
		want := binary.LittleEndian.Uint32(body[len(body)-recTrailerLen:])
		if crc32.ChecksumIEEE(payload) != want {
			break // torn or corrupt record
		}
		key := string(payload[:keyLen])
		d.index[key] = diskLoc{
			seg:    seg,
			valOff: off + recHeaderLen + int64(keyLen),
			valLen: valLen,
		}
		seg.keys = append(seg.keys, key)
		off += recHeaderLen + bodyLen
	}
	if off < size && last {
		// Crash tail: drop it so the next append starts at a clean
		// record boundary.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return fmt.Errorf("resultstore: truncate torn tail of %s: %w", path, err)
		}
		size = off
	}
	seg.size = off
	if !last {
		// Dead tail bytes of a sealed segment still occupy disk.
		seg.size = size
	}
	d.segs = append(d.segs, seg)
	d.total += seg.size
	return nil
}

// newSegment creates and activates segment seq.  Callers hold mu (or
// have exclusive access during OpenDisk).
func (d *Disk) newSegment(seq uint64) (*segment, error) {
	path := filepath.Join(d.cfg.Dir, fmt.Sprintf("seg-%08d.log", seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: create segment %s: %w", path, err)
	}
	seg := &segment{seq: seq, path: path, f: f}
	d.segs = append(d.segs, seg)
	return seg, nil
}

// recordSize is the on-disk footprint of one record.
func recordSize(keyLen, valLen int) int64 {
	return recHeaderLen + int64(keyLen) + int64(valLen) + recTrailerLen
}

// Set appends one record to the active segment, rotating and evicting
// as the size caps require.  A key the index already holds keeps its
// record: Set appends nothing and returns nil, still counting the call.
func (d *Disk) Set(_ context.Context, key string, val []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("resultstore: key length %d out of range", len(key))
	}
	if len(val) > maxValLen {
		return fmt.Errorf("resultstore: value length %d exceeds %d", len(val), maxValLen)
	}
	// appendMu serializes Sets end to end, so no other Set can index the
	// key between the held check below and the append.
	d.appendMu.Lock()
	defer d.appendMu.Unlock()

	// Pick (rotating if needed) the active segment and the append
	// offset under the lock; the committed size only advances after a
	// successful write, so a failed append's bytes are overwritten by
	// the next one (and recovery would truncate them).
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errClosed
	}
	if _, held := d.index[key]; held {
		d.mu.Unlock()
		d.sets.Add(1)
		return nil
	}
	recLen := recordSize(len(key), len(val))
	active := d.segs[len(d.segs)-1]
	if active.sealed || (active.size > 0 && active.size+recLen > d.cfg.SegmentBytes) {
		next, err := d.newSegment(active.seq + 1)
		if err != nil {
			d.mu.Unlock()
			d.errs.Add(1)
			return err
		}
		active = next
	}
	off := active.size
	d.mu.Unlock()

	rec := make([]byte, recLen)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[recHeaderLen:], key)
	copy(rec[recHeaderLen+len(key):], val)
	crc := crc32.ChecksumIEEE(rec[recHeaderLen : recHeaderLen+len(key)+len(val)])
	binary.LittleEndian.PutUint32(rec[len(rec)-recTrailerLen:], crc)

	// The write itself runs outside mu: appendMu guarantees exclusive
	// ownership of [off, off+len(rec)), and eviction never touches the
	// active segment, so concurrent Gets stay unblocked.
	if _, err := active.f.WriteAt(rec, off); err != nil {
		d.errs.Add(1)
		return fmt.Errorf("resultstore: append to %s: %w", active.path, err)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	active.size = off + recLen
	d.total += recLen
	d.index[key] = diskLoc{
		seg:    active,
		valOff: off + recHeaderLen + int64(len(key)),
		valLen: uint32(len(val)),
	}
	active.keys = append(active.keys, key)
	d.sets.Add(1)
	d.enforceCap()
	return nil
}

// enforceCap evicts whole segments oldest-first while the store exceeds
// MaxBytes, keeping at least the active segment.  Each eviction walks
// only the victim's own key list (a key whose replayed newer record
// lives in a younger segment keeps its index entry).  Callers hold mu
// (or have exclusive access during OpenDisk).
func (d *Disk) enforceCap() {
	for d.total > d.cfg.MaxBytes && len(d.segs) > 1 {
		victim := d.segs[0]
		for _, key := range victim.keys {
			if loc, ok := d.index[key]; ok && loc.seg == victim {
				delete(d.index, key)
			}
		}
		victim.f.Close()
		os.Remove(victim.path)
		d.total -= victim.size
		d.segs = d.segs[1:]
	}
}

// Get returns the stored response for key, reading it back from its
// segment.
func (d *Disk) Get(ctx context.Context, key string) ([]byte, bool, error) {
	return d.get(ctx, key, true)
}

// Peek is Get without the hit/miss accounting.
func (d *Disk) Peek(ctx context.Context, key string) ([]byte, bool, error) {
	return d.get(ctx, key, false)
}

func (d *Disk) get(_ context.Context, key string, count bool) ([]byte, bool, error) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return nil, false, errClosed
	}
	loc, ok := d.index[key]
	d.mu.RUnlock()
	if !ok {
		if count {
			d.misses.Add(1)
		}
		return nil, false, nil
	}
	// Read outside the lock so slow disks never serialize readers
	// behind appends or evictions.  Segment fields used here (f, path)
	// are immutable; if eviction closed the file mid-read, the failed
	// read is re-classified below.
	val := make([]byte, loc.valLen)
	_, err := loc.seg.f.ReadAt(val, loc.valOff)
	if err != nil {
		// The segment may have been evicted (its file closed) between
		// the index lookup and the read: if the key no longer points at
		// this location, the entry is simply gone — a miss, not an I/O
		// failure.  Otherwise the record the index points at cannot be
		// read: drop the entry so the caller's recompute-and-Set writes
		// a fresh record instead of keeping the unreadable one.  The
		// segment's file is shorter than its committed size, so an
		// append there would leave a hole that replay reads as a torn
		// tail, losing every record after it: seal the segment, and the
		// next Set rotates.
		d.mu.Lock()
		cur, still := d.index[key]
		if still && cur == loc {
			delete(d.index, key)
			loc.seg.sealed = true
		}
		d.mu.Unlock()
		if !still || cur != loc {
			if count {
				d.misses.Add(1)
			}
			return nil, false, nil
		}
		d.errs.Add(1)
		return nil, false, fmt.Errorf("resultstore: read %s: %w", loc.seg.path, err)
	}
	if count {
		d.hits.Add(1)
	}
	return val, true, nil
}

// Delete drops key from the index, as get does for a record it cannot
// read: the store stops serving it, and the next Set of key appends a
// fresh record.  The old record stays in its segment until the segment
// is evicted; a restart replays it again unless a newer record for key
// follows it.
func (d *Disk) Delete(_ context.Context, key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	delete(d.index, key)
	return nil
}

// Stats returns the disk tier's counters.
func (d *Disk) Stats() []TierStats {
	d.mu.RLock()
	entries, bytes := len(d.index), d.total
	d.mu.RUnlock()
	return []TierStats{{
		Tier:    "disk",
		Entries: entries,
		Bytes:   bytes,
		Hits:    d.hits.Load(),
		Misses:  d.misses.Load(),
		Sets:    d.sets.Load(),
		Errors:  d.errs.Load(),
	}}
}

// Len returns the number of distinct keys currently indexed.
func (d *Disk) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.index)
}

// Close closes every segment file.  The store's contents remain on disk
// and are served again by the next OpenDisk of the same directory.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var errs []error
	for _, seg := range d.segs {
		if err := seg.f.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	// Uniform Stats semantics across backends: Entries/Bytes describe
	// what the open store can serve, which after Close is nothing.  (Op
	// counters stay — they are process-lifetime.)
	d.index = map[string]diskLoc{}
	d.total = 0
	if d.lock != nil {
		// Closing the fd releases the flock.
		if err := d.lock.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
