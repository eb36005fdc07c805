package resultstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/faultinject"
)

// encodeRecord frames one key/value pair exactly as Set does — the
// seeds below build well-formed segments that the Corrupter then mauls.
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
	// Seed corpus: a clean segment, then Corrupter-damaged variants of
	// it — a flipped byte anywhere, a flipped byte inside the first
	// record's value, and torn tails of several lengths.
	var clean []byte
	clean = append(clean, encodeRecord("alpha", []byte("the first value"))...)
	clean = append(clean, encodeRecord("beta", []byte("the second value"))...)
	clean = append(clean, encodeRecord("alpha", []byte("the overwrite"))...)
	f.Add(clean)
	f.Add([]byte{})
	for seed := int64(1); seed <= 4; seed++ {
		c := faultinject.NewCorrupter(seed)
		flipped := append([]byte(nil), clean...)
		c.FlipByte(flipped)
		f.Add(flipped)
		inValue := append([]byte(nil), clean...)
		c.FlipByteIn(inValue, recHeaderLen+len("alpha"), recHeaderLen+len("alpha")+15)
		f.Add(inValue)
		f.Add(clean[:c.TornTail(len(clean), len(clean)-1)])
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

// getResponse renders pairs as a memcached get response, in order.
func getResponse(pairs [][2]string, flags []uint32) []byte {
	var b bytes.Buffer
	for i, p := range pairs {
		fmt.Fprintf(&b, "VALUE %s %d %d\r\n%s\r\n", p[0], flags[i], len(p[1]), p[1])
	}
	b.WriteString("END\r\n")
	return b.Bytes()
}

// referenceValues is an independent walk of the get-response framing:
// header lines parsed with the protocol's grammar, data blocks located
// by byte offset.  It returns the values (a repeated key's last value
// wins), the size each value's VALUE line declared, and false when the
// response is malformed or unterminated.
func referenceValues(data []byte) (map[string][]byte, map[string]int, bool) {
	values, sizes := map[string][]byte{}, map[string]int{}
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return nil, nil, false
		}
		line := strings.TrimRight(string(data[:nl]), "\r\n")
		data = data[nl+1:]
		if line == "END" {
			return values, sizes, true
		}
		var key string
		var flags uint32
		var size int
		if n, err := fmt.Sscanf(line, "VALUE %s %d %d", &key, &flags, &size); n != 3 || err != nil || size < 0 || size > maxValLen {
			return nil, nil, false
		}
		if len(data) < size+2 || data[size] != '\r' || data[size+1] != '\n' {
			return nil, nil, false
		}
		values[key], sizes[key] = data[:size], size
		data = data[size+2:]
	}
}

// FuzzRemoteReadValues feeds arbitrary bytes to the memcached get
// response reader.  Whatever the bytes, it must not panic, must agree
// with the reference walk on whether the response is well formed, and
// every value it returns must be exactly as long as its VALUE line
// declared — never longer than maxValLen.  A hostile length must not
// cost a matching allocation either: the fuzzer's memory limit catches
// a reader that trusts it.
func FuzzRemoteReadValues(f *testing.F) {
	// Seed corpus: well-formed responses over random key/value pairs
	// (binary values, CRLFs inside them included), each of which must
	// parse back to exactly those pairs.
	rng := rand.New(rand.NewSource(1))
	const keyChars = "abcdefghijklmnopqrstuvwxyz0123456789-_:"
	for seed := 0; seed < 8; seed++ {
		var pairs [][2]string
		var flags []uint32
		want := map[string]string{}
		for i := rng.Intn(4); i >= 0; i-- {
			key := make([]byte, 1+rng.Intn(40))
			for j := range key {
				key[j] = keyChars[rng.Intn(len(keyChars))]
			}
			if _, dup := want[string(key)]; dup {
				continue
			}
			val := make([]byte, rng.Intn(200))
			rng.Read(val)
			if seed%2 == 0 && len(val) > 2 {
				copy(val[len(val)/2:], "\r\n")
			}
			pairs = append(pairs, [2]string{string(key), string(val)})
			flags = append(flags, rng.Uint32())
			want[string(key)] = string(val)
		}
		resp := getResponse(pairs, flags)
		got, err := readValues(bufio.NewReader(bytes.NewReader(resp)))
		if err != nil {
			f.Fatalf("seed %d: readValues: %v", seed, err)
		}
		if len(got) != len(want) {
			f.Fatalf("seed %d: parsed %d values, built %d", seed, len(got), len(want))
		}
		for k, v := range want {
			if string(got[k]) != v {
				f.Fatalf("seed %d: value of %q = %q, want %q", seed, k, got[k], v)
			}
		}
		f.Add(resp)
	}
	f.Add([]byte("END\r\n"))
	f.Add([]byte("VALUE k 0 1073741824\r\nshort\r\nEND\r\n"))
	f.Add([]byte("VALUE k 0 3\r\nabcde\r\nEND\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readValues(bufio.NewReader(bytes.NewReader(data)))
		want, sizes, ok := referenceValues(data)
		if (err == nil) != ok {
			t.Fatalf("readValues err = %v, reference well-formed = %v", err, ok)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("parsed %d values, reference found %d", len(got), len(want))
		}
		for k, v := range got {
			if len(v) != sizes[k] || len(v) > maxValLen {
				t.Fatalf("value of %q is %d bytes, its VALUE line declared %d", k, len(v), sizes[k])
			}
			if !bytes.Equal(v, want[k]) {
				t.Fatalf("value of %q = %q, reference %q", k, v, want[k])
			}
		}
	})
}
