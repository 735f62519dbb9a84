package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"punctsafe/internal/faultinject"
	"punctsafe/stream"
)

// FuzzRestoreRuntime throws arbitrary bytes at the restore path. The
// invariants are the corruption-hardening contract: RestoreRuntime never
// panics, every rejection is the typed ErrCorruptCheckpoint, and a
// rejected restore leaves the register usable (an accepted one yields a
// runtime that shuts down cleanly). The seed corpus covers a valid
// snapshot, torn and bit-rotted variants of it, and framing edge cases.
func FuzzRestoreRuntime(f *testing.F) {
	blob := makeCheckpoint(f)
	f.Add(blob)                           // fully valid snapshot
	f.Add(blob[:len(blob)-5])             // torn tail (checksum gone)
	f.Add(blob[:len(blob)/2])             // torn mid-body
	f.Add(blob[:len(checkpointMagic)])    // bare magic, nothing else
	f.Add([]byte{})                       // empty file
	f.Add([]byte(checkpointMagic))        // magic only
	f.Add([]byte("PSCKPT99garbage"))      // future version
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // varint overflow soup
	f.Add(orderedStringCheckpoint(f))     // "<=" on a string value, valid CRC
	for _, g := range faultinject.CorruptCopies(blob, 8, 7) {
		f.Add(g)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, _ := newAuctionDSMS(t, 2)
		rt, err := d.RestoreRuntime(bytes.NewReader(data), RuntimeOptions{})
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		rt.Close()
		if werr := rt.Wait(); werr != nil {
			t.Fatalf("restored runtime failed to shut down: %v", werr)
		}
	})
}

// orderedStringCheckpoint is a well-formed snapshot, checksum included,
// whose one dead letter is a punctuation with a "<=" pattern over a string
// value: a pattern the data model cannot hold. It is cut from a real
// snapshot by rewriting the bound "<= 0x4847464544434241" in place as the
// equally long string "ABCDEFG".
func orderedStringCheckpoint(t testing.TB) []byte {
	t.Helper()
	d, _ := newAuctionDSMS(t, 2)
	rt := d.RunSharded(RuntimeOptions{OnError: Quarantine})
	rt.AddDeadLetter(DeadLetter{
		Stream: "bid",
		Elem: stream.PunctElement(stream.MustPunctuation(
			stream.Wildcard(), stream.Leq(stream.Int(0x4847464544434241)), stream.Wildcard())),
		Err: errors.New("test offender"),
	})
	var snap bytes.Buffer
	if err := rt.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	blob := snap.Bytes()
	at := bytes.Index(blob, []byte{anyPatLeq, anyValInt, 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H'})
	if at < 0 {
		t.Fatal("the dead-lettered bound is not in the snapshot")
	}
	copy(blob[at+1:], []byte{anyValString, 7, 'A', 'B', 'C', 'D', 'E', 'F', 'G'})
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-4]))
	return blob
}

// TestRestoreOrderedPatternOnString: the snapshot above is refused as
// corrupt at the pattern, not accepted and not a panic.
func TestRestoreOrderedPatternOnString(t *testing.T) {
	d, _ := newAuctionDSMS(t, 2)
	_, err := d.RestoreRuntime(bytes.NewReader(orderedStringCheckpoint(t)), RuntimeOptions{})
	if !errors.Is(err, ErrCorruptCheckpoint) || !strings.Contains(err.Error(), "ordered pattern") {
		t.Fatalf("got %v, want ErrCorruptCheckpoint (ordered pattern)", err)
	}
}
