package engine

import (
	"bytes"
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

// TestShareAttachDetachBoundaries: a subscriber attached to a running
// group receives exactly a suffix of the driver's delivery sequence, a
// detached one keeps exactly a prefix, and detaching a group's last
// member retires the tree without disturbing the runtime.
func TestShareAttachDetachBoundaries(t *testing.T) {
	d, regs := newShareAuctionDSMS(t, 2, Options{})
	rt := d.RunSharded(RuntimeOptions{Buffer: 4})
	feed := auctionFeed(40, 3)
	half, threeQ := len(feed)/2, 3*len(feed)/4

	for _, te := range feed[:half] {
		if err := rt.Send(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	late, err := rt.Attach("late", workload.AuctionQuery(), Options{Share: true})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if late.Tree != regs[0].Tree {
		t.Fatal("attached query did not join the live share group")
	}
	for _, te := range feed[half:threeQ] {
		if err := rt.Send(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Detach("share1"); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	for _, te := range feed[threeQ:] {
		if err := rt.Send(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	driver := resultStrings(regs[0])
	if len(driver) != 40*3 {
		t.Fatalf("driver delivered %d results, want %d", len(driver), 40*3)
	}
	// Suffix property: the attach cut fell on an element boundary, so the
	// late subscriber's results are exactly the tail of the driver's.
	lateGot := resultStrings(late)
	if len(lateGot) == 0 || len(lateGot) >= len(driver) {
		t.Fatalf("late subscriber delivered %d results; want a proper non-empty suffix of %d", len(lateGot), len(driver))
	}
	requireEqualResults(t, "late suffix", driver[len(driver)-len(lateGot):], lateGot)
	// Prefix property for the detached member.
	earlyGot := resultStrings(regs[1])
	if len(earlyGot) == 0 || len(earlyGot) >= len(driver) {
		t.Fatalf("detached subscriber kept %d results; want a proper non-empty prefix of %d", len(earlyGot), len(driver))
	}
	requireEqualResults(t, "detached prefix", driver[:len(earlyGot)], earlyGot)
	if _, err := rt.Stats("share1"); err == nil {
		t.Fatal("Stats must not resolve a detached query")
	}

	// Last-subscriber retirement: a single-member group's tree retires at
	// its detach barrier; later sends have nowhere to route and the
	// runtime still closes cleanly.
	d2, regs2 := newShareAuctionDSMS(t, 1, Options{})
	rt2 := d2.RunSharded(RuntimeOptions{})
	for _, te := range auctionElems(1, 2) {
		if err := rt2.Send(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt2.Detach("share0"); err != nil {
		t.Fatal(err)
	}
	if got := d2.PhysicalTrees(); got != 0 {
		t.Fatalf("PhysicalTrees after retiring detach = %d, want 0", got)
	}
	for _, te := range auctionElems(2, 2) {
		if err := rt2.Send(te.Stream, te.Elem); err != nil {
			t.Fatalf("Send after retirement: %v", err)
		}
	}
	rt2.Close()
	if err := rt2.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := len(regs2[0].Results); got != 2 {
		t.Fatalf("retired query kept %d results, want the 2 delivered before detach", got)
	}
}

// TestSharedCheckpointRestoreEvolved is the recovery acceptance test for
// shared execution: N queries over K shared trees, with a subscriber
// attached AND one detached mid-run, checkpoint, kill, restore into a
// fresh register holding the evolved membership, resume — every
// surviving query's combined output and final stats must equal the
// uninterrupted run's.
func TestSharedCheckpointRestoreEvolved(t *testing.T) {
	build := func(withQ1 bool) (*DSMS, map[string]*Registered) {
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
		if withQ1 {
			reg("q1", Options{Share: true})
		}
		reg("q2", Options{Share: true, ShareTag: "other"})
		reg("q3", Options{})
		return d, regs
	}

	feed := auctionFeed(40, 3)
	cut, cut2 := len(feed)/2, 3*len(feed)/4

	d, regs := build(true)
	rt := d.RunSharded(RuntimeOptions{})
	sendAtAll(t, rt, feed, 0, cut)
	// Evolve mid-run: q4 joins q0's tree, q1 leaves it.
	q4, err := rt.Attach("q4", workload.AuctionQuery(), Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	regs["q4"] = q4
	if err := rt.Detach("q1"); err != nil {
		t.Fatal(err)
	}
	sendAtAll(t, rt, feed, cut, cut2)
	var snap bytes.Buffer
	if err := rt.Checkpoint(&snap); err != nil {
		t.Fatalf("Checkpoint with shared trees: %v", err)
	}
	live := []string{"q0", "q2", "q3", "q4"}
	prefix := make(map[string][]string, len(live))
	for _, name := range live {
		prefix[name] = resultStrings(regs[name])
	}
	sendAtAll(t, rt, feed, cut2, len(feed))
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	// Second life: a fresh register with the EVOLVED membership (q1 gone,
	// q4 present, same order) restores the snapshot and resumes.
	d2, _ := build(false)
	q4b, err := d2.Register("q4", workload.AuctionQuery(), Options{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.PhysicalTrees(); got != 3 {
		t.Fatalf("restored register PhysicalTrees = %d, want 3", got)
	}
	rt2, err := d2.RestoreRuntime(bytes.NewReader(snap.Bytes()), RuntimeOptions{})
	if err != nil {
		t.Fatalf("RestoreRuntime: %v", err)
	}
	if got := rt2.ResumeOffset("feed"); got != int64(cut2) {
		t.Fatalf("ResumeOffset = %d, want %d", got, cut2)
	}
	sendAtAll(t, rt2, feed, cut2, len(feed))
	rt2.Close()
	if err := rt2.Wait(); err != nil {
		t.Fatal(err)
	}

	for _, name := range live {
		want := resultStrings(regs[name])
		var got []string
		got = append(got, prefix[name]...)
		r2, ok := d2.Get(name)
		if !ok {
			t.Fatalf("query %s missing after restore", name)
		}
		if name == "q4" {
			r2 = q4b
		}
		got = append(got, resultStrings(r2)...)
		requireEqualResults(t, name, want, got)
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
		if r2.Delivered() != regs[name].Delivered() {
			t.Fatalf("query %s: delivered %d across restore, want %d", name, r2.Delivered(), regs[name].Delivered())
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
		driver := regs[0]
		s := &shard{
			reg:   driver,
			group: driver.group,
			subs:  append([]*Registered(nil), driver.group.members...),
		}
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
