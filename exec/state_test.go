package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"punctsafe/query"
	"punctsafe/stream"
)

// State model test. A joinState is driven through every way the operator
// touches one — insert, single removals, purge-round bulk removals under a
// pin, removal from inside a walk, window eviction, snapshot restore —
// while a plain map[tupleID]Tuple tracks what must be stored. After every
// step the columns, the index buckets, the walk order, the size gauge and
// the snapshot bytes are checked against the map. The operations come from
// a byte string, so the randomised test and the fuzz target share one
// driver.

// stateModel is one joinState under test (input 0 of a host operator, so
// the snapshot codec can be run over it) and its model.
type stateModel struct {
	t     *testing.T
	m     *MJoin
	model map[tupleID]stream.Tuple
	next  tupleID
	// keyPeak is the state's high-water key count, summed over its
	// indexes; reused records an insert that took a spare bucket.
	keyPeak int
	reused  bool
}

// modelQuery is R(K int, S string, V int) ⋈ T on K and S: one numeric and
// one string index per state.
func modelQuery() *query.CJQ {
	attrs := func() []stream.Attribute {
		return []stream.Attribute{{Name: "K", Kind: stream.KindInt}, {Name: "S", Kind: stream.KindString}, {Name: "V", Kind: stream.KindInt}}
	}
	return query.NewBuilder().
		AddStream(stream.MustSchema("R", attrs()...)).
		AddStream(stream.MustSchema("T", attrs()...)).
		Join("R.K", "T.K").Join("R.S", "T.S").
		MustBuild()
}

func newStateModel(t *testing.T) *stateModel {
	m, err := NewMJoin(Config{Query: modelQuery()})
	if err != nil {
		t.Fatal(err)
	}
	return &stateModel{t: t, m: m, model: map[tupleID]stream.Tuple{}}
}

func (sm *stateModel) st() *joinState { return sm.m.states[0] }

// remove deletes a stored tuple from the state and the model.
func (sm *stateModel) remove(r row) {
	delete(sm.model, sm.st().ids[r])
	sm.st().remove(r)
}

// step applies one operation.
func (sm *stateModel) step(code, arg byte) {
	st := sm.st()
	switch code % 7 {
	case 0, 1: // insert a run; V carries the id the tuple must get
		strs := []string{"", "a", "b", "cc"}
		spare := len(st.spare)
		defer func() { sm.reused = sm.reused || len(st.spare) < spare }()
		// The run goes in through one buffer, overwritten after every
		// insert: the state keeps copies.
		vals := make([]stream.Value, 3)
		for n := int(arg)%48 + 1; n > 0; n-- {
			v := int64(sm.next)
			vals[0], vals[1], vals[2] = stream.Int((v*7+int64(arg))%6), stream.Str(strs[(v+int64(arg))%4]), stream.Int(v)
			u := stream.NewTuple(vals...)
			st.insert(u)
			sm.model[sm.next] = u.Clone()
			sm.next++
			vals[0], vals[1], vals[2] = stream.Int(-1), stream.Str("scribbled"), stream.Int(-1)
		}
	case 2: // remove the arg-th stored tuple, compacting by threshold
		if k := len(sm.model); k > 0 {
			k = int(arg) % k
			st.each(func(r row, _ stream.Tuple) bool {
				if k == 0 {
					sm.remove(r)
				}
				k--
				return k >= 0
			})
		}
	case 3: // purge round: every tuple under one key, rows pinned
		st.pin()
		for _, r := range slices.Clone(st.index.lookup(0, stream.Int(int64(arg%6)))) {
			sm.remove(r)
		}
		st.unpin()
	case 4: // removal from inside the walk
		mod := int64(arg%5) + 2
		st.each(func(r row, u stream.Tuple) bool {
			if u.Values[2].AsInt()%mod == 0 {
				sm.remove(r)
			}
			return true
		})
	case 5: // window eviction
		for n := int(arg)%32 + 1; n > 0 && len(sm.model) > 0; n-- {
			oldest := sm.next
			for id := range sm.model {
				oldest = min(oldest, id)
			}
			delete(sm.model, oldest)
			st.removeOldest()
		}
	case 6: // carry on from the restored state, whose key peak starts anew
		sm.m, sm.keyPeak = sm.roundTrip(), 0
	}
}

// roundTrip serializes the host operator, decodes the bytes into a second
// operator, and requires that one to serialize to the same bytes.
func (sm *stateModel) roundTrip() *MJoin {
	t := sm.t
	blob, err := sm.m.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMJoin(Config{Query: sm.m.q})
	if err != nil {
		t.Fatal(err)
	}
	os, err := m2.decodeState(blob)
	if err != nil {
		t.Fatalf("decodeState rejected appendState's bytes: %v", err)
	}
	m2.installState(os)
	again, err := m2.appendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("appendState → decodeState → appendState moved bytes (%d → %d)", len(blob), len(again))
	}
	return m2
}

// check compares a joinState with the model.
func (sm *stateModel) check(st *joinState) {
	t := sm.t
	t.Helper()
	want := make([]tupleID, 0, len(sm.model))
	for id := range sm.model {
		want = append(want, id)
	}
	slices.Sort(want)
	var walked []tupleID
	st.each(func(r row, u stream.Tuple) bool {
		id := st.ids[r]
		if u.String() != sm.model[id].String() {
			t.Fatalf("each: id %d holds %s, model %s", id, u, sm.model[id])
		}
		walked = append(walked, id)
		return true
	})
	if !slices.Equal(walked, want) {
		t.Fatalf("each visited ids %v, model holds %v", walked, want)
	}
	if st.size() != len(want) || st.nextID != sm.next {
		t.Fatalf("size %d nextID %d, model %d and %d", st.size(), st.nextID, len(want), sm.next)
	}
	if st.tombstoned() {
		t.Fatalf("%d of %d rows dead and not compacted", st.nDead, len(st.ids))
	}
	if n := len(st.ids); len(st.dead) != n || len(st.mark) != n || len(st.pages)*pageRows < n {
		t.Fatalf("column lengths %d %d %d, %d pages", n, len(st.dead), len(st.mark), len(st.pages))
	}
	requireSlotsZeroPastRows(t, st)
	dead := 0
	expect := make([]map[mapKey][]row, len(st.index))
	for r, id := range st.ids {
		if r > 0 && st.ids[r-1] >= id {
			t.Fatalf("ids not ascending at row %d", r)
		}
		if st.dead[r] {
			dead++
			continue
		}
		for a, idx := range st.index {
			if idx == nil {
				continue
			}
			if expect[a] == nil {
				expect[a] = map[mapKey][]row{}
			}
			k := idx.keyOf(st.tuple(row(r)).Values[a])
			expect[a][k] = append(expect[a][k], row(r))
		}
	}
	if dead != st.nDead || st.head > len(st.ids) || slices.Contains(st.dead[:st.head], false) {
		t.Fatalf("nDead %d head %d, counted %d dead", st.nDead, st.head, dead)
	}
	keys := 0
	for a, idx := range st.index {
		if idx == nil {
			continue
		}
		keys += idx.len()
		if idx.len() != len(expect[a]) {
			t.Fatalf("attr %d: %d buckets, want %d", a, idx.len(), len(expect[a]))
		}
		for k, rows := range expect[a] {
			if got, _ := idx.get(k); !slices.Equal(got, rows) {
				t.Fatalf("attr %d key %v: bucket %v, live rows holding it %v", a, k, got, rows)
			}
		}
	}
	sm.checkSpare(st, keys)
}

// requireSlotsZeroPastRows fails unless every page slot past the state's
// last row is zero: the values compaction vacated are cleared, and the
// pages it keeps pin nothing.
func requireSlotsZeroPastRows(t *testing.T, st *joinState) {
	t.Helper()
	for r := len(st.ids); r < len(st.pages)*pageRows; r++ {
		for _, v := range st.slot(row(r)) {
			if !reflect.ValueOf(v).IsZero() {
				t.Fatalf("row %d past the %d rows holds %v", r, len(st.ids), v)
			}
		}
	}
}

// checkSpare holds the state's spare buckets to their rules: empty,
// sharing no slot of their arrays with a live key's bucket or with each
// other, and no more of them than the index held keys at its peak, live
// keys included (only a new key with no spare to take allocates a
// bucket).
func (sm *stateModel) checkSpare(st *joinState, keys int) {
	t := sm.t
	t.Helper()
	owner := map[*row]string{}
	claim := func(b []row, who string) {
		b = b[:cap(b)]
		for i := range b {
			if prev, ok := owner[&b[i]]; ok {
				t.Fatalf("%s shares an array slot with %s", who, prev)
			}
			owner[&b[i]] = who
		}
	}
	for a, idx := range st.index {
		if idx != nil {
			idx.each(func(k mapKey, b []row) { claim(b, fmt.Sprintf("attr %d key %v", a, k)) })
		}
	}
	for i, b := range st.spare {
		if len(b) != 0 {
			t.Fatalf("spare bucket %d holds rows %v", i, b)
		}
		claim(b, fmt.Sprintf("spare bucket %d", i))
	}
	if st != sm.st() {
		return // a restored copy: its peak is its own, and it keeps no spare
	}
	sm.keyPeak = max(sm.keyPeak, keys)
	if keys+len(st.spare) > sm.keyPeak {
		t.Fatalf("%d keys and %d spare buckets, but the index never held more than %d keys",
			keys, len(st.spare), sm.keyPeak)
	}
}

// runStateModel drives ops — (code, argument) byte pairs — checking the
// live state and a restored copy after every step. It reports whether the
// state was seen to compact, and whether an insert took a spare bucket.
func runStateModel(t *testing.T, ops []byte) (compacted, reused bool) {
	sm := newStateModel(t)
	for i := 0; i+1 < len(ops); i += 2 {
		rows := len(sm.st().ids)
		sm.step(ops[i], ops[i+1])
		sm.check(sm.st())
		restored := sm.roundTrip().states[0]
		sm.check(restored)
		if len(restored.spare) != 0 {
			t.Fatalf("restored with %d spare buckets", len(restored.spare))
		}
		// A state that lost rows without a restore compacted.
		if ops[i]%7 != 6 {
			compacted = compacted || len(sm.st().ids) < rows
		}
	}
	return compacted, sm.reused
}

func TestJoinStateModel(t *testing.T) {
	compacted, reused := false, false
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 2*150)
		rand.New(rand.NewSource(seed)).Read(ops)
		c, r := runStateModel(t, ops)
		compacted = compacted || c
		reused = reused || r
	}
	if !compacted || !reused {
		t.Fatalf("compaction seen %v, spare bucket reused %v — the test is vacuous", compacted, reused)
	}
}

// stateModelSeeds are hand-written runs: fill, purge by key until the
// state compacts twice, remove from inside walks, evict, restore and
// continue.
var stateModelSeeds = [][]byte{
	{0, 47, 0, 47, 0, 47, 3, 0, 3, 1, 3, 2, 0, 47, 3, 3, 3, 4, 3, 5, 0, 20, 3, 0},
	{0, 47, 1, 47, 0, 47, 0, 30, 3, 1, 3, 2, 3, 3, 3, 4, 6, 1, 3, 5, 3, 0, 0, 9},
	{1, 40, 1, 40, 1, 40, 4, 0, 4, 1, 5, 31, 5, 31, 0, 12, 2, 200, 6, 1, 5, 31},
	{0, 47, 0, 47, 5, 31, 5, 31, 5, 31, 0, 47, 0, 47, 4, 3, 2, 9, 6, 3, 4, 0},
}

func FuzzJoinState(f *testing.F) {
	for _, s := range stateModelSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2*64 {
			ops = ops[:2*64] // bound one input's cost, not what it can reach
		}
		runStateModel(t, ops)
	})
}
