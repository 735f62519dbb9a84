package engine

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"punctsafe/internal/faultinject"
	"punctsafe/workload"
)

// auctionFeed flattens item groups into one ordered feed.
func auctionFeed(items, bids int) []TaggedElement {
	var out []TaggedElement
	for i := 0; i < items; i++ {
		out = append(out, auctionElems(int64(i), bids)...)
	}
	return out
}

func resultStrings(reg *Registered) []string {
	out := make([]string, len(reg.Results))
	for i, r := range reg.Results {
		out[i] = r.String()
	}
	return out
}

// sendAtAll feeds elements [from, to) with their index+1 as the
// committed offset, so ResumeOffset counts elements delivered.
func sendAtAll(t testing.TB, rt *Runtime, feed []TaggedElement, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := rt.SendAt("feed", feed[i].Stream, feed[i].Elem, int64(i)+1); err != nil {
			t.Fatalf("SendAt %d: %v", i, err)
		}
	}
}

// TestCheckpointRestoreRoundTrip: checkpoint mid-stream, restore into a
// fresh register, resume from the recorded offset — the prefix captured
// at the barrier plus the restored run's output must equal the
// uninterrupted run exactly, stats included.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	feed := auctionFeed(40, 3)
	cut := len(feed) / 2

	d, regs := newAuctionDSMS(t, 2)
	rt := d.RunSharded(RuntimeOptions{})
	sendAtAll(t, rt, feed, 0, cut)
	var snap bytes.Buffer
	if err := rt.Checkpoint(&snap); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// The barrier guarantees every pre-checkpoint element is reflected in
	// Results by the time Checkpoint returns.
	prefix := make(map[string][]string, len(regs))
	for _, reg := range regs {
		prefix[reg.Name] = resultStrings(reg)
	}
	sendAtAll(t, rt, feed, cut, len(feed))
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	d2, regs2 := newAuctionDSMS(t, 2)
	rt2, err := d2.RestoreRuntime(bytes.NewReader(snap.Bytes()), RuntimeOptions{})
	if err != nil {
		t.Fatalf("RestoreRuntime: %v", err)
	}
	resume := rt2.ResumeOffset("feed")
	if resume != int64(cut) {
		t.Fatalf("ResumeOffset = %d, want %d", resume, cut)
	}
	sendAtAll(t, rt2, feed, int(resume), len(feed))
	rt2.Close()
	if err := rt2.Wait(); err != nil {
		t.Fatal(err)
	}

	for i, reg := range regs {
		want := resultStrings(reg)
		got := append(append([]string(nil), prefix[reg.Name]...), resultStrings(regs2[i])...)
		if len(got) != len(want) {
			t.Fatalf("query %s: %d results across the crash, want %d", reg.Name, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %s: result %d differs: %s vs %s", reg.Name, j, got[j], want[j])
			}
		}
		wantStats, err := rt.Stats(reg.Name)
		if err != nil {
			t.Fatal(err)
		}
		gotStats, err := rt2.Stats(reg.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("query %s: stats diverge:\n%v\nvs\n%v", reg.Name, gotStats, wantStats)
		}
	}
}

// TestCheckpointClosedRuntime: a drained runtime can still be
// checkpointed, and the snapshot restores with identical stats.
func TestCheckpointClosedRuntime(t *testing.T) {
	feed := auctionFeed(10, 2)
	d, _ := newAuctionDSMS(t, 1)
	rt := d.RunSharded(RuntimeOptions{})
	sendAtAll(t, rt, feed, 0, len(feed))
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := rt.Checkpoint(&snap); err != nil {
		t.Fatalf("Checkpoint after Close: %v", err)
	}
	d2, _ := newAuctionDSMS(t, 1)
	rt2, err := d2.RestoreRuntime(bytes.NewReader(snap.Bytes()), RuntimeOptions{})
	if err != nil {
		t.Fatalf("RestoreRuntime: %v", err)
	}
	if got := rt2.ResumeOffset("feed"); got != int64(len(feed)) {
		t.Fatalf("ResumeOffset = %d, want %d", got, len(feed))
	}
	rt2.Close()
	if err := rt2.Wait(); err != nil {
		t.Fatal(err)
	}
	want, err := rt.Stats("q0")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt2.Stats("q0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stats diverge:\n%v\nvs\n%v", got, want)
	}
}

// TestCheckpointKilledRuntimeFails: a crashed runtime has no trustworthy
// state; Checkpoint must refuse, and Wait must surface the kill.
func TestCheckpointKilledRuntimeFails(t *testing.T) {
	d, _ := newAuctionDSMS(t, 1)
	rt := d.RunSharded(RuntimeOptions{})
	sendAtAll(t, rt, auctionFeed(5, 2), 0, 10)
	rt.Kill()
	if err := rt.Checkpoint(io.Discard); !errors.Is(err, ErrKilled) {
		t.Fatalf("Checkpoint on killed runtime: %v, want ErrKilled", err)
	}
	rt.Close()
	if err := rt.Wait(); !errors.Is(err, ErrKilled) {
		t.Fatalf("Wait = %v, want ErrKilled", err)
	}
}

// makeCheckpoint runs half a feed and returns the snapshot blob.
func makeCheckpoint(t testing.TB) []byte {
	t.Helper()
	feed := auctionFeed(20, 3)
	d, _ := newAuctionDSMS(t, 2)
	rt := d.RunSharded(RuntimeOptions{})
	sendAtAll(t, rt, feed, 0, len(feed)/2)
	var snap bytes.Buffer
	if err := rt.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes()
}

// TestRestoreCorruptRejected: every damaged variant of a checkpoint —
// torn prefixes, bit rot, garbage tails, bad magic, even a garble with a
// freshly recomputed CRC — must fail with ErrCorruptCheckpoint, never
// panic, and never half-restore: the same register accepts the intact
// blob afterwards.
func TestRestoreCorruptRejected(t *testing.T) {
	blob := makeCheckpoint(t)
	d, _ := newAuctionDSMS(t, 2)

	tryRestore := func(b []byte) error {
		rt, err := d.RestoreRuntime(bytes.NewReader(b), RuntimeOptions{})
		if err == nil {
			rt.Close()
			rt.Wait()
		}
		return err
	}

	for _, cut := range []int{0, 1, len(checkpointMagic), len(checkpointMagic) + 1, len(blob) / 3, len(blob) - 1} {
		if err := tryRestore(blob[:cut]); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncation at %d: got %v, want ErrCorruptCheckpoint", cut, err)
		}
	}
	badMagic := append([]byte(nil), blob...)
	badMagic[7] = '9'
	if err := tryRestore(badMagic); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("version mismatch: got %v", err)
	}
	for i, g := range faultinject.CorruptCopies(blob, 48, 99) {
		if bytes.Equal(g, blob) {
			continue // garbage happened to reproduce the original
		}
		if err := tryRestore(g); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("corrupt copy %d: got %v, want ErrCorruptCheckpoint", i, err)
		}
	}

	// Structural validation must not lean on the CRC alone: flip a byte of
	// a checkpointed query name and patch the checksum — the restore must
	// still reject it (the name no longer matches a registered query).
	garbled := append([]byte(nil), blob...)
	at := bytes.LastIndex(garbled, []byte("q0"))
	if at < 0 {
		t.Fatal("query name not found in blob")
	}
	garbled[at] = 'z'
	crc := crc32.ChecksumIEEE(garbled[:len(garbled)-4])
	garbled[len(garbled)-4] = byte(crc)
	garbled[len(garbled)-3] = byte(crc >> 8)
	garbled[len(garbled)-2] = byte(crc >> 16)
	garbled[len(garbled)-1] = byte(crc >> 24)
	if err := tryRestore(garbled); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("recomputed-CRC garble: got %v, want ErrCorruptCheckpoint", err)
	}

	// After all those rejections the register is still pristine enough to
	// restore the intact snapshot.
	rt, err := d.RestoreRuntime(bytes.NewReader(blob), RuntimeOptions{})
	if err != nil {
		t.Fatalf("intact snapshot rejected after corrupt attempts: %v", err)
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreWrongRegisterRejected: a snapshot only restores into a DSMS
// holding the same query set.
func TestRestoreWrongRegisterRejected(t *testing.T) {
	blob := makeCheckpoint(t) // queries q0, q1
	d, _ := newAuctionDSMS(t, 1)
	if _, err := d.RestoreRuntime(bytes.NewReader(blob), RuntimeOptions{}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("query-count mismatch: got %v, want ErrCorruptCheckpoint", err)
	}
	d3 := New()
	for _, s := range workload.AuctionSchemes().All() {
		d3.RegisterScheme(s)
	}
	for _, name := range []string{"other0", "other1"} {
		if _, err := d3.Register(name, workload.AuctionQuery(), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d3.RestoreRuntime(bytes.NewReader(blob), RuntimeOptions{}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("query-name mismatch: got %v, want ErrCorruptCheckpoint", err)
	}
}

// TestCheckpointFileTornWrite: CheckpointFile lands atomically, a torn
// copy is rejected as corrupt, and the previous intact snapshot still
// restores — the operational crash-during-checkpoint story.
func TestCheckpointFileTornWrite(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	torn := filepath.Join(dir, "torn.ckpt")

	feed := auctionFeed(15, 2)
	d, _ := newAuctionDSMS(t, 1)
	rt := d.RunSharded(RuntimeOptions{})
	sendAtAll(t, rt, feed, 0, len(feed)/2)
	if err := rt.CheckpointFile(good); err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	if _, err := os.Stat(good + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temporary file left behind")
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, blob[:len(blob)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, _ := newAuctionDSMS(t, 1)
	tf, err := os.Open(torn)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := d2.RestoreRuntime(tf, RuntimeOptions{})
	tf.Close()
	if !errors.Is(rerr, ErrCorruptCheckpoint) {
		t.Fatalf("torn file: got %v, want ErrCorruptCheckpoint", rerr)
	}
	gf, err := os.Open(good)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := d2.RestoreRuntime(gf, RuntimeOptions{})
	gf.Close()
	if err != nil {
		t.Fatalf("previous intact snapshot rejected: %v", err)
	}
	if got := rt2.ResumeOffset("feed"); got != int64(len(feed)/2) {
		t.Fatalf("ResumeOffset = %d, want %d", got, len(feed)/2)
	}
	rt2.Close()
	if err := rt2.Wait(); err != nil {
		t.Fatal(err)
	}
}
