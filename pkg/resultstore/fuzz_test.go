package resultstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// encodeRecord frames one key/value pair exactly as Set does — the
// seeds below build well-formed segments that the corrupter then mauls.
func encodeRecord(key string, val []byte) []byte {
	rec := make([]byte, recordSize(len(key), len(val)))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[recHeaderLen:], key)
	copy(rec[recHeaderLen+len(key):], val)
	crc := crc32.ChecksumIEEE(rec[recHeaderLen : recHeaderLen+len(key)+len(val)])
	binary.LittleEndian.PutUint32(rec[len(rec)-recTrailerLen:], crc)
	return rec
}

// referenceDecode is an independent reimplementation of the replay
// framing rules: walk records front to back, stop at the first framing
// or CRC failure, newest record wins.  The fuzz target checks OpenDisk
// against it, so replay can never serve a record this decoder rejects.
func referenceDecode(data []byte) map[string]string {
	out := map[string]string{}
	off := 0
	for off+recHeaderLen+recTrailerLen <= len(data) {
		keyLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		valLen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		if keyLen == 0 || keyLen > maxKeyLen || valLen > maxValLen {
			break
		}
		end := off + recHeaderLen + keyLen + valLen + recTrailerLen
		if end < 0 || end > len(data) {
			break
		}
		payload := data[off+recHeaderLen : end-recTrailerLen]
		want := binary.LittleEndian.Uint32(data[end-recTrailerLen : end])
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		out[string(payload[:keyLen])] = string(payload[keyLen:])
		off = end
	}
	return out
}

// FuzzSegmentReplay feeds arbitrary bytes to the disk store as a
// pre-existing segment file.  Whatever the bytes, OpenDisk must not
// panic, must never serve a record the reference decoder rejects (that
// is: nothing past the first framing/CRC failure), and must leave a
// store that still accepts writes.
func FuzzSegmentReplay(f *testing.F) {
	// Seed corpus: a clean segment, then corrupter-damaged variants of
	// it — a flipped byte anywhere, a flipped byte inside the first
	// record's value, and torn tails of several lengths.
	var clean []byte
	clean = append(clean, encodeRecord("alpha", []byte("the first value"))...)
	clean = append(clean, encodeRecord("beta", []byte("the second value"))...)
	clean = append(clean, encodeRecord("alpha", []byte("the overwrite"))...)
	f.Add(clean)
	f.Add([]byte{})
	for seed := int64(1); seed <= 4; seed++ {
		c := newCorrupter(seed)
		flipped := append([]byte(nil), clean...)
		c.flipByte(flipped)
		f.Add(flipped)
		inValue := append([]byte(nil), clean...)
		c.flipByteIn(inValue, recHeaderLen+len("alpha"), recHeaderLen+len("alpha")+15)
		f.Add(inValue)
		f.Add(clean[:c.tornTail(len(clean), len(clean)-1)])
	}
	// A header promising more data than exists.
	huge := encodeRecord("key", []byte("val"))
	binary.LittleEndian.PutUint32(huge[4:8], 1<<29)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "seg-00000001.log")
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(DiskConfig{Dir: dir})
		if err != nil {
			// A clean refusal is acceptable; serving garbage is not.
			return
		}
		defer d.Close()

		want := referenceDecode(data)
		if d.Len() != len(want) {
			t.Fatalf("replay indexed %d keys, reference decoder found %d", d.Len(), len(want))
		}
		for key, val := range want {
			got, ok, err := d.Get(ctx, key)
			if err != nil || !ok || string(got) != val {
				t.Fatalf("Get(%q) = %q %v %v, want %q", key, got, ok, err, val)
			}
		}
		// The survivor store must still take writes — the torn tail was
		// truncated to a clean append boundary.
		if err := d.Set(ctx, "post-replay", []byte("still writable")); err != nil {
			t.Fatalf("Set after replay: %v", err)
		}
		if v, ok := mustGet(t, d, "post-replay"); !ok || string(v) != "still writable" {
			t.Fatalf("post-replay readback = %q %v", v, ok)
		}
	})
}
