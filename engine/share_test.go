package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"punctsafe/stream"
	"punctsafe/workload"
)

// Shared-subplan execution suite: fingerprint-equal Share registrations
// must fold onto one physical tree, every subscriber must observe
// exactly the output stream an independent tree would have produced,
// live attach/detach must cut subscriptions on exact element boundaries,
// and checkpoints must restore a register whose membership evolved
// mid-run.

// newShareAuctionDSMS registers the auction schemes and n Share copies
// of the auction query named share0..share<n-1>.
func newShareAuctionDSMS(t testing.TB, n int, opts Options) (*DSMS, []*Registered) {
	t.Helper()
	opts.Share = true
	d := New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	regs := make([]*Registered, n)
	for i := range regs {
		reg, err := d.Register(fmt.Sprintf("share%d", i), workload.AuctionQuery(), opts)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = reg
	}
	return d, regs
}

func requireEqualResults(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d diverges:\n  got:  %s\n  want: %s", label, i, got[i], want[i])
		}
	}
}

// TestShareFoldsIdenticalQueries: on the sequential path, fingerprint-
// equal Share registrations alias one tree, a differently-tagged Share
// query and an unshared query each keep their own, and every subscriber
// sees identical results.
func TestShareFoldsIdenticalQueries(t *testing.T) {
	d, regs := newShareAuctionDSMS(t, 5, Options{})
	solo, err := d.Register("solo", workload.AuctionQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := d.Register("tagged", workload.AuctionQuery(), Options{Share: true, ShareTag: "other"})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PhysicalTrees(); got != 3 {
		t.Fatalf("PhysicalTrees = %d, want 3 (one share group + solo + tagged)", got)
	}
	for i, r := range regs {
		if r.Tree != regs[0].Tree {
			t.Fatalf("share%d does not alias the group tree", i)
		}
		if r.Fingerprint != regs[0].Fingerprint {
			t.Fatalf("share%d fingerprint %q differs from driver %q", i, r.Fingerprint, regs[0].Fingerprint)
		}
	}
	if tagged.Tree == regs[0].Tree {
		t.Fatal("ShareTag failed to discriminate: tagged query aliases the untagged tree")
	}
	if tagged.Fingerprint == regs[0].Fingerprint {
		t.Fatal("ShareTag did not change the fingerprint")
	}
	if solo.Fingerprint != "" {
		t.Fatalf("unshared query carries fingerprint %q", solo.Fingerprint)
	}
	if got := regs[0].SharedWith(); len(got) != 4 || got[0] != "share1" {
		t.Fatalf("SharedWith = %v", got)
	}

	for _, te := range auctionFeed(20, 3) {
		if err := d.Push(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	want := resultStrings(regs[0])
	if len(want) != 20*3 {
		t.Fatalf("driver delivered %d results, want %d", len(want), 20*3)
	}
	for i, r := range regs {
		requireEqualResults(t, fmt.Sprintf("share%d", i), want, resultStrings(r))
	}
	requireEqualResults(t, "solo", want, resultStrings(solo))
	requireEqualResults(t, "tagged", want, resultStrings(tagged))
	if got := d.TotalState(); got != 0 {
		t.Fatalf("TotalState = %d after full purge, want 0", got)
	}

	// A member's departure shrinks the group; the tree lives on.
	d.Unregister("share2")
	if got := d.PhysicalTrees(); got != 3 {
		t.Fatalf("PhysicalTrees after member unregister = %d, want 3", got)
	}
	if got := len(regs[0].group.members); got != 4 {
		t.Fatalf("group members after unregister = %d, want 4", got)
	}
}

// TestShareRuntimeFanOut: the sharded runtime runs one worker per share
// group; every member's Results and delivery counts match, and Stats by
// a follower's name answers with the shared tree's counters.
func TestShareRuntimeFanOut(t *testing.T) {
	d, regs := newShareAuctionDSMS(t, 3, Options{})
	solo, err := d.Register("solo", workload.AuctionQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := d.RunSharded(RuntimeOptions{})
	feed := auctionFeed(30, 3)
	for i, te := range feed {
		if err := rt.Send(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
		if i == len(feed)/2 {
			// A mid-run snapshot addressed by a follower's name.
			if _, err := rt.Stats("share2"); err != nil {
				t.Fatalf("Stats by follower name: %v", err)
			}
		}
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	want := resultStrings(regs[0])
	if len(want) != 30*3 {
		t.Fatalf("driver delivered %d results, want %d", len(want), 30*3)
	}
	for i, r := range regs {
		requireEqualResults(t, fmt.Sprintf("share%d", i), want, resultStrings(r))
		if r.Delivered() != regs[0].Delivered() {
			t.Fatalf("share%d delivered %d, driver %d", i, r.Delivered(), regs[0].Delivered())
		}
	}
	requireEqualResults(t, "solo", want, resultStrings(solo))
	s0, err := rt.Stats("share0")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := rt.Stats("share1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s0, s1) {
		t.Fatal("follower stats differ from driver stats on one shared tree")
	}
}

// TestSharedCheckpointRestore is the recovery acceptance test for shared
// execution: N queries over K shared trees, their membership fixed at
// Register, checkpoint mid-run, feed on past the cut, kill, restore into
// a fresh register with the same membership, resume from the committed
// offset — every query's output at the cut plus the restored run's must
// equal the uninterrupted run's, final stats and delivery counts
// included.
func TestSharedCheckpointRestore(t *testing.T) {
	build := func() (*DSMS, map[string]*Registered) {
		d := New()
		for _, s := range workload.AuctionSchemes().All() {
			d.RegisterScheme(s)
		}
		regs := make(map[string]*Registered)
		reg := func(name string, opts Options) {
			r, err := d.Register(name, workload.AuctionQuery(), opts)
			if err != nil {
				t.Fatal(err)
			}
			regs[name] = r
		}
		reg("q0", Options{Share: true})
		reg("q1", Options{Share: true})
		reg("q2", Options{Share: true, ShareTag: "other"})
		reg("q3", Options{})
		reg("q4", Options{Share: true})
		if got := d.PhysicalTrees(); got != 3 {
			t.Fatalf("PhysicalTrees = %d, want 3", got)
		}
		return d, regs
	}
	names := []string{"q0", "q1", "q2", "q3", "q4"}
	feed := auctionFeed(40, 3)
	cut, cut2 := len(feed)/2, 3*len(feed)/4

	// The uninterrupted run.
	d, want := build()
	rt := d.RunSharded(RuntimeOptions{})
	sendAtAll(t, rt, feed, 0, len(feed))
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	// The crashed run: checkpoint at cut, feed on to cut2, kill.
	dc, crashed := build()
	rtc := dc.RunSharded(RuntimeOptions{})
	sendAtAll(t, rtc, feed, 0, cut)
	var snap bytes.Buffer
	if err := rtc.Checkpoint(&snap); err != nil {
		t.Fatalf("Checkpoint with shared trees: %v", err)
	}
	prefix := make(map[string][]string, len(names))
	for _, name := range names {
		prefix[name] = resultStrings(crashed[name])
	}
	sendAtAll(t, rtc, feed, cut, cut2)
	rtc.Kill()
	rtc.Close()
	if err := rtc.Wait(); !errors.Is(err, ErrKilled) {
		t.Fatalf("Wait after Kill = %v, want ErrKilled", err)
	}

	// Second life: a fresh register with the same membership restores the
	// snapshot and resumes where the checkpoint committed.
	d2, restored := build()
	rt2, err := d2.RestoreRuntime(bytes.NewReader(snap.Bytes()), RuntimeOptions{})
	if err != nil {
		t.Fatalf("RestoreRuntime: %v", err)
	}
	if got := rt2.ResumeOffset("feed"); got != int64(cut) {
		t.Fatalf("ResumeOffset = %d, want %d", got, cut)
	}
	sendAtAll(t, rt2, feed, cut, len(feed))
	rt2.Close()
	if err := rt2.Wait(); err != nil {
		t.Fatal(err)
	}

	for _, name := range names {
		got := append(prefix[name], resultStrings(restored[name])...)
		requireEqualResults(t, name, resultStrings(want[name]), got)
		wantStats, err := rt.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		gotStats, err := rt2.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("query %s: restored stats diverge:\n%v\nvs\n%v", name, gotStats, wantStats)
		}
		if restored[name].Delivered() != want[name].Delivered() {
			t.Fatalf("query %s: delivered %d across restore, want %d", name, restored[name].Delivered(), want[name].Delivered())
		}
	}
}

// TestShareRoleMismatchRejected: a snapshot written by a shared run must
// not restore into a register whose Share options disagree — the state
// presence per section would contradict the group roles.
func TestShareRoleMismatchRejected(t *testing.T) {
	d, _ := newShareAuctionDSMS(t, 2, Options{})
	rt := d.RunSharded(RuntimeOptions{})
	sendAtAll(t, rt, auctionFeed(10, 2), 0, 20)
	var snap bytes.Buffer
	if err := rt.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	// Same names, but independent trees: share1's section carries no
	// state, yet the register expects it to own one.
	d2 := New()
	for _, s := range workload.AuctionSchemes().All() {
		d2.RegisterScheme(s)
	}
	for _, name := range []string{"share0", "share1"} {
		if _, err := d2.Register(name, workload.AuctionQuery(), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d2.RestoreRuntime(bytes.NewReader(snap.Bytes()), RuntimeOptions{}); err == nil {
		t.Fatal("share-group role mismatch must reject the snapshot")
	}
}

// TestFanOutDeliveryAllocs is the alloc-floor guard for shared-tree
// fan-out: delivering one output batch to extra subscribers must not
// allocate — the whole point of sharing is O(subscribers) pointer work
// per delivery, not O(subscribers) copies. scripts/check.sh runs this
// test by name.
func TestFanOutDeliveryAllocs(t *testing.T) {
	outs := []stream.Element{
		stream.TupleElement(stream.NewTuple(stream.Int(1), stream.Int(2), stream.Str("x"), stream.Float(3), stream.Int(4))),
		stream.PunctElement(stream.MustPunctuation(stream.Wildcard(), stream.Const(stream.Int(2)), stream.Wildcard())),
	}
	newShard := func(regs []*Registered) *shard {
		s := &shard{reg: regs[0]}
		s.rebuildSubs()
		return s
	}
	t.Run("active", func(t *testing.T) {
		sink := func(stream.Tuple) {}
		_, regs := newShareAuctionDSMS(t, 16, Options{OnResult: sink})
		s := newShard(regs)
		per := testing.AllocsPerRun(200, func() { s.deliver(outs) })
		if per > 0 {
			t.Fatalf("fan-out to 16 callback subscribers allocates %.1f times per batch, want 0", per)
		}
	})
	t.Run("passive", func(t *testing.T) {
		// The tree lends its result tuples and the shared log keeps them,
		// so the log copies each one: one allocation per result tuple,
		// however many passive views read the log.
		for _, n := range []int{1, 16} {
			_, regs := newShareAuctionDSMS(t, n, Options{})
			s := newShard(regs)
			// Pre-grow the shared log the way a warm shard would be, so the
			// measurement sees the steady state, not growslice warm-up.
			s.logTuples = make([]stream.Tuple, 0, 4096)
			per := testing.AllocsPerRun(200, func() { s.deliver(outs) })
			if per != 1 {
				t.Fatalf("fan-out of one result tuple to %d passive subscribers allocates %.1f times per batch, want 1 (its copy)", n, per)
			}
		}
	})
}
