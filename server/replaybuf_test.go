package server

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestReplayBufMatchesSlice drives a replayBuf and a plain byte slice with
// the same appends and trims and compares what each would replay.
func TestReplayBufMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var (
		r    replayBuf
		ref  []byte
		next byte
	)
	check := func(step int) {
		t.Helper()
		if r.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, r.len(), len(ref))
		}
		for _, from := range []int{0, len(ref) / 3, len(ref)} {
			var got bytes.Buffer
			if err := r.writeFrom(&got, from); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), ref[from:]) {
				t.Fatalf("step %d: replay from %d of %d differs", step, from, len(ref))
			}
		}
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 7:
			n := rng.Intn(40)
			if op == 0 {
				n = rng.Intn(3 * replayBlock)
			}
			b := make([]byte, n)
			for i := range b {
				b[i] = next
				next++
			}
			r.append(b)
			ref = append(ref, b...)
		case op < 9:
			k := rng.Intn(len(ref) + 1)
			r.trim(k)
			ref = ref[k:]
		default:
			r.trim(len(ref))
			ref = ref[:0]
		}
		check(step)
	}
}

// TestReplayBufAllocatesItsHighWaterMark is the property the type exists
// for: filling it to n bytes allocates n rounded up to a block, and
// refilling it after a trim allocates nothing.
func TestReplayBufAllocatesItsHighWaterMark(t *testing.T) {
	var r replayBuf
	frame := make([]byte, 20)
	const frames = 10 * replayBlock / 20
	fill := func() {
		for i := 0; i < frames; i++ {
			r.append(frame)
		}
	}
	fill()
	if got, want := len(r.blocks), (frames*20+replayBlock-1)/replayBlock; got != want {
		t.Fatalf("%d blocks for %d bytes, want %d", got, frames*20, want)
	}
	r.trim(r.len())
	if allocs := testing.AllocsPerRun(5, func() { fill(); r.trim(r.len()) }); allocs != 0 {
		t.Fatalf("refilling a trimmed buffer allocates %v times, want 0", allocs)
	}
}
