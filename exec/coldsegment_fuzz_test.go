package exec

// FuzzColdSegment hardens the MJS2 snapshot decoder against arbitrary
// bytes around the reserved cold-segment fields: the seed corpus is a
// snapshot written by the two-tier join state (testdata/tiered_mixed.state,
// frozen rows present) plus torn, bit-flipped, and garbage variants. The
// decoder still reads those frozen rows into the one row store, so the
// invariants are the snapshot contract of DecodeState/InstallState — never
// panic, reject with an error wrapping ErrCorruptState, and an accepted
// restore must leave the tree usable (a push and a flush still run).

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"punctsafe/internal/faultinject"
	"punctsafe/stream"
	"punctsafe/workload"
)

func FuzzColdSegment(f *testing.F) {
	blob, err := os.ReadFile("testdata/tiered_mixed.state")
	if err != nil {
		f.Fatal(err)
	}
	q, set, inputs := goldenMixedScenario(34)
	// The first tuple of the feed is the probe pushed after an accepted
	// restore.
	feed, err := workload.NewFeed(q, inputs)
	if err != nil {
		f.Fatal(err)
	}
	probeIdx, probe := -1, stream.Element{}
	if err := feed.Each(func(i int, e stream.Element) error {
		if probeIdx < 0 && !e.IsPunct() {
			probeIdx, probe = i, e
		}
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	if probeIdx < 0 {
		f.Fatal("the mixed feed has no tuple to probe with")
	}

	f.Add(blob)
	f.Add(blob[:1])
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:len(blob)-3])
	f.Add(blob[:4])                       // magic only
	f.Add([]byte("MJS9............"))     // wrong version
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // uvarint soup
	for _, c := range faultinject.CorruptCopies(blob, 8, 7) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := buildTree(t, q, set, Config{})
		st, err := tr.DecodeState(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptState) {
				t.Fatalf("DecodeState rejected with untyped error: %v", err)
			}
			return
		}
		if err := tr.InstallState(st); err != nil {
			if !errors.Is(err, ErrCorruptState) {
				t.Fatalf("InstallState rejected with untyped error: %v", err)
			}
			return
		}
		// An accepted restore must leave a usable tree: a probe into the
		// restored state and a flush both run clean.
		if _, err := tr.Push(probeIdx, probe); err != nil {
			t.Fatalf("push after accepted restore: %v", err)
		}
		if _, err := tr.Flush(); err != nil {
			t.Fatalf("flush after accepted restore: %v", err)
		}
	})
}
