package exec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

func buildTree(t *testing.T, q *query.CJQ, set *stream.SchemeSet, cfg Config) *Tree {
	t.Helper()
	cfg.Query = q
	cfg.Schemes = set
	p, err := plan.ChooseSafe(q, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func pushAll(t *testing.T, tr *Tree, q *query.CJQ, inputs []workload.Input) []string {
	t.Helper()
	feed, err := workload.NewFeed(q, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	if err := feed.Each(func(i int, e stream.Element) error {
		outs, err := tr.Push(i, e)
		for _, o := range outs {
			out = append(out, o.String())
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTreeStateBisimulation is the core state-fidelity check: a tree
// restored from a mid-stream snapshot must behave exactly like the tree
// it was taken from — element for element, counter for counter — for the
// rest of the stream, across purge configurations (eager, lazy batches,
// punctuation purging, lifespans).
func TestTreeStateBisimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	cfgs := []Config{
		{},
		{PurgeBatch: 7},
		{PurgePunctuations: true},
		{PurgeBatch: 4, PurgePunctuations: true},
		{PunctLifespan: 64},
	}
	for trial := 0; trial < 12; trial++ {
		q, set, inputs := randomClosedScenario(rng)
		cut := len(inputs) / 2
		for ci, cfg := range cfgs {
			orig := buildTree(t, q, set, cfg)
			pushAll(t, orig, q, inputs[:cut])

			var snap bytes.Buffer
			if err := orig.WriteState(&snap); err != nil {
				t.Fatalf("trial %d cfg %d: WriteState: %v", trial, ci, err)
			}
			restored := buildTree(t, q, set, cfg)
			if err := readState(restored, bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("trial %d cfg %d: readState: %v", trial, ci, err)
			}
			if !reflect.DeepEqual(orig.StatsSnapshot(), restored.StatsSnapshot()) {
				t.Fatalf("trial %d cfg %d: stats diverge right after restore:\n%v\nvs\n%v",
					trial, ci, orig.StatsSnapshot(), restored.StatsSnapshot())
			}

			wantOut := pushAll(t, orig, q, inputs[cut:])
			gotOut := pushAll(t, restored, q, inputs[cut:])
			if len(wantOut) != len(gotOut) {
				t.Fatalf("trial %d cfg %d: %d outputs after restore, want %d",
					trial, ci, len(gotOut), len(wantOut))
			}
			for i := range wantOut {
				if wantOut[i] != gotOut[i] {
					t.Fatalf("trial %d cfg %d: output %d differs: %s vs %s",
						trial, ci, i, gotOut[i], wantOut[i])
				}
			}
			wantFlush, err := orig.Flush()
			if err != nil {
				t.Fatal(err)
			}
			gotFlush, err := restored.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if len(wantFlush) != len(gotFlush) {
				t.Fatalf("trial %d cfg %d: flush outputs differ: %d vs %d",
					trial, ci, len(gotFlush), len(wantFlush))
			}
			for i := range wantFlush {
				if wantFlush[i].String() != gotFlush[i].String() {
					t.Fatalf("trial %d cfg %d: flush output %d differs", trial, ci, i)
				}
			}
			if !reflect.DeepEqual(orig.StatsSnapshot(), restored.StatsSnapshot()) {
				t.Fatalf("trial %d cfg %d: final stats diverge:\n%v\nvs\n%v",
					trial, ci, orig.StatsSnapshot(), restored.StatsSnapshot())
			}
		}
	}
}

// TestCheckpointedLifespanExpiresOnSchedule is the §5.1 lifespan
// regression: a punctuation whose lifespan was mid-flight at checkpoint
// time must stop covering tuples at exactly the same logical tick after a
// restore as it would have without one.
func TestCheckpointedLifespanExpiresOnSchedule(t *testing.T) {
	q := binaryQuery(t)
	set := bothSideSchemes()
	cfg := Config{PunctLifespan: 40, EnforcePromises: true}

	orig := buildTree(t, q, set, cfg)
	// A few warm-up elements so the punctuation arrives at a non-zero clock.
	if _, err := orig.Push(1, stream.TupleElement(tup(100, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Push(0, stream.PunctElement(punct(7, -1))); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := orig.WriteState(&snap); err != nil {
		t.Fatal(err)
	}
	restored := buildTree(t, q, set, cfg)
	if err := readState(restored, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}

	// White-box: both trees hold the entry with the same absolute deadline.
	entryExpiry := func(tr *Tree) uint64 {
		expires, found := uint64(0), false
		tr.Root().puncts[0].each(0, func(_ int, e *punctEntry) bool {
			expires, found = e.expires, true
			return false
		})
		if !found {
			t.Fatal("no stored punctuation entry")
		}
		return expires
	}
	wantExpiry := entryExpiry(orig)
	if got := entryExpiry(restored); got != wantExpiry {
		t.Fatalf("restored expiry %d, original %d", got, wantExpiry)
	}
	if wantExpiry == 0 {
		t.Fatal("expiry not set; lifespan config did not take")
	}

	// Behavioral: probe each tick with a tuple the punctuation forbids.
	// Every rejected probe advances the clock by one in both trees, so the
	// first accepted probe marks the expiry tick; it must be the same tick
	// in both, exactly one past the recorded deadline.
	expiryTick := func(tr *Tree) uint64 {
		for i := 0; i < 200; i++ {
			_, err := tr.Push(0, stream.TupleElement(tup(7, int64(i))))
			if err == nil {
				return tr.Root().clock
			}
			if !errors.Is(err, ErrPromiseViolated) {
				t.Fatalf("unexpected error while covered: %v", err)
			}
		}
		t.Fatal("punctuation never expired")
		return 0
	}
	wantTick := expiryTick(orig)
	gotTick := expiryTick(restored)
	if wantTick != gotTick {
		t.Fatalf("restored tree expired at tick %d, uninterrupted at %d", gotTick, wantTick)
	}
	if wantTick != wantExpiry+1 {
		t.Fatalf("expired at tick %d, want deadline %d + 1", wantTick, wantExpiry)
	}
}

// TestTreeStateCorruptRejected: a damaged snapshot must fail with
// ErrCorruptState (never panic), and DecodeState must leave the target
// tree untouched.
func TestTreeStateCorruptRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	q, set, inputs := randomClosedScenario(rng)
	tr := buildTree(t, q, set, Config{PunctLifespan: 32})
	pushAll(t, tr, q, inputs[:len(inputs)/2])
	var snap bytes.Buffer
	if err := tr.WriteState(&snap); err != nil {
		t.Fatal(err)
	}
	blob := snap.Bytes()

	fresh := func() *Tree { return buildTree(t, q, set, Config{PunctLifespan: 32}) }

	// Every truncation must be rejected.
	for _, cut := range []int{0, 1, 2, 3, len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		if cut >= len(blob) {
			continue
		}
		_, err := fresh().DecodeState(bytes.NewReader(blob[:cut]))
		if !errors.Is(err, ErrCorruptState) {
			t.Fatalf("truncation at %d: got %v, want ErrCorruptState", cut, err)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := fresh().DecodeState(bytes.NewReader(append(append([]byte(nil), blob...), 0xAB))); !errors.Is(err, ErrCorruptState) {
		t.Fatal("trailing garbage accepted")
	}
	// A version-mismatched header must be rejected.
	wrong := append([]byte(nil), blob...)
	wrong[3] = '9'
	if _, err := fresh().DecodeState(bytes.NewReader(wrong)); !errors.Is(err, ErrCorruptState) {
		t.Fatal("version mismatch accepted")
	}
	// Seeded single-byte garbles: decode must never panic; any error must
	// be the typed corruption error. (Some flips only change a counter
	// value and still parse — that is acceptable; the property under test
	// is typed failure, not detection of every possible flip.)
	for i := 0; i < 64; i++ {
		g := append([]byte(nil), blob...)
		g[rng.Intn(len(g))] ^= 0xFF
		if _, err := fresh().DecodeState(bytes.NewReader(g)); err != nil && !errors.Is(err, ErrCorruptState) {
			t.Fatalf("garble %d: untyped error %v", i, err)
		}
	}
	// The intact snapshot still restores after all those rejections.
	if err := readState(fresh(), bytes.NewReader(blob)); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
}

// TestTieredSnapshotRestores: MJS2 still carries the frozen rows of the
// removed two-tier join state, and a snapshot holding some restores into
// the one row store. testdata/tiered_mixed.state is a Tree snapshot of
// goldenMixedScenario(34), run with a freeze generation every 32
// elements, cut where 18 live rows were frozen and 4 were not;
// testdata/tiered_mixed.out records the cut, the live tuple count there
// and at the end of the feed, and then every output the rest of the feed
// produced. The restored tree must store as many tuples and emit the same.
func TestTieredSnapshotRestores(t *testing.T) {
	blob, err := os.ReadFile("testdata/tiered_mixed.state")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile("testdata/tiered_mixed.out")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(rec), "\n"), "\n")
	var cut, live, end int
	if _, err := fmt.Sscanf(strings.Join(lines[:3], "\n"), "cut %d\nlive %d\nend %d", &cut, &live, &end); err != nil {
		t.Fatalf("recorded header: %v", err)
	}
	q, set, inputs := goldenMixedScenario(34)
	tr := buildTree(t, q, set, Config{})
	if err := readState(tr, bytes.NewReader(blob)); err != nil {
		t.Fatalf("tiered snapshot rejected: %v", err)
	}
	stored := 0
	for _, m := range tr.Operators() {
		for _, st := range m.states {
			stored += st.size()
		}
	}
	if stored != live || tr.TotalState() != live {
		t.Fatalf("restored %d stored tuples (stats say %d), the snapshot holds %d", stored, tr.TotalState(), live)
	}
	got, want := pushAll(t, tr, q, inputs[cut:]), lines[3:]
	if !slices.Equal(got, want) {
		t.Fatalf("rest of the feed emitted %d elements, recorded %d; first difference at %d",
			len(got), len(want), firstDiff(got, want))
	}
	if got := tr.TotalState(); got != end {
		t.Fatalf("%d live tuples at the end of the feed, recorded %d", got, end)
	}
}

// firstDiff returns the first index where a and b differ.
func firstDiff(a, b []string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// readState decodes a snapshot and installs it into t.
func readState(t *Tree, r io.Reader) error {
	s, err := t.DecodeState(r)
	if err != nil {
		return err
	}
	return t.InstallState(s)
}
