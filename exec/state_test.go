package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"punctsafe/query"
	"punctsafe/stream"
)

// State model test. A joinState is driven through every way the operator
// touches one — insert, single removals, purge-round bulk removals under a
// pin, removal from inside a walk, window eviction, freeze generations,
// cold-tier removals, snapshot restore — while a plain map[tupleID]Tuple
// tracks what must be stored. After every step the columns, both tiers'
// index buckets, the walk order, the size gauges and the snapshot bytes
// are checked against the map. The operations come from a byte string, so
// the randomised test and the fuzz target share one driver.

// stateModel is one joinState under test (input 0 of a host operator, so
// the snapshot codec can be run over it) and its model.
type stateModel struct {
	t     *testing.T
	m     *MJoin
	model map[tupleID]stream.Tuple
	next  tupleID
	// keyPeak is each tier's high-water key count, summed over its
	// indexes; reused records an insert that took a spare bucket.
	keyPeak map[*rowStore]int
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

// idOf reads the id column behind a rowRef.
func idOf(st *joinState, ref rowRef) tupleID {
	rs, r := st.at(ref)
	return rs.ids[r]
}

// remove deletes a stored tuple from the state and the model.
func (sm *stateModel) remove(ref rowRef) {
	delete(sm.model, idOf(sm.st(), ref))
	sm.st().remove(ref)
}

// step applies one operation.
func (sm *stateModel) step(code, arg byte) {
	st := sm.st()
	switch code % 8 {
	case 0, 1: // insert a run; V carries the id the tuple must get
		strs := []string{"", "a", "b", "cc"}
		spare := len(st.hot.spare)
		defer func() { sm.reused = sm.reused || len(st.hot.spare) < spare }()
		for n := int(arg)%48 + 1; n > 0; n-- {
			v := int64(sm.next)
			u := stream.NewTuple(stream.Int((v*7+int64(arg))%6), stream.Str(strs[(v+int64(arg))%4]), stream.Int(v))
			st.insert(u)
			sm.model[sm.next] = u
			sm.next++
		}
	case 2: // remove the arg-th stored tuple, compacting by threshold
		if k := len(sm.model); k > 0 {
			k = int(arg) % k
			st.each(func(ref rowRef, _ stream.Tuple) bool {
				if k == 0 {
					sm.remove(ref)
				}
				k--
				return k >= 0
			})
		}
	case 3: // purge round: every tuple under one key, rows pinned
		st.pin()
		tb := st.lookup2(0, stream.Int(int64(arg%6)))
		for ti, run := range tb {
			for _, r := range slices.Clone(run) {
				sm.remove(mkRef(ti, r))
			}
		}
		st.unpin()
	case 4: // removal from inside the walk (partition split)
		mod := int64(arg%5) + 2
		st.each(func(ref rowRef, u stream.Tuple) bool {
			if u.Values[2].AsInt()%mod == 0 {
				sm.remove(ref)
			}
			return true
		})
	case 5:
		st.advanceFreeze()
	case 6: // window eviction
		for n := int(arg)%32 + 1; n > 0 && len(sm.model) > 0; n-- {
			oldest := sm.next
			for id := range sm.model {
				oldest = min(oldest, id)
			}
			delete(sm.model, oldest)
			st.removeOldest()
		}
	case 7:
		if arg%2 == 0 {
			st.freezeAll()
		} else {
			sm.m = sm.roundTrip() // carry on from the restored state
		}
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
	cold := 0
	for id := range sm.model {
		want = append(want, id)
		if id < st.frozenBound {
			cold++
		}
	}
	slices.Sort(want)
	var walked []tupleID
	st.each(func(ref rowRef, u stream.Tuple) bool {
		id := idOf(st, ref)
		if u.String() != sm.model[id].String() {
			t.Fatalf("each: id %d holds %s, model %s", id, u, sm.model[id])
		}
		walked = append(walked, id)
		return true
	})
	if !slices.Equal(walked, want) {
		t.Fatalf("each visited ids %v, model holds %v", walked, want)
	}
	if st.size() != len(want) || st.coldSize() != cold {
		t.Fatalf("size %d coldSize %d, model %d and %d", st.size(), st.coldSize(), len(want), cold)
	}
	if st.frozenBound > st.freezeAt || st.freezeAt > st.nextID || st.nextID != sm.next {
		t.Fatalf("watermarks frozenBound %d freezeAt %d nextID %d (model next %d)", st.frozenBound, st.freezeAt, st.nextID, sm.next)
	}
	for ti, rs := range st.tiers() {
		if rs == nil {
			continue
		}
		if ti == coldTier && rs.size() == 0 {
			t.Fatalf("empty cold segment not released (%d tombstones)", rs.nDead)
		}
		if rs.tombstoned() {
			t.Fatalf("tier %d: %d of %d rows dead and not compacted", ti, rs.nDead, len(rs.ids))
		}
		if n := len(rs.ids); len(rs.tups) != n || len(rs.dead) != n || len(rs.mark) != n {
			t.Fatalf("tier %d: column lengths %d %d %d %d", ti, n, len(rs.tups), len(rs.dead), len(rs.mark))
		}
		dead := 0
		expect := make([]map[mapKey][]row, len(rs.index))
		for r, id := range rs.ids {
			if r > 0 && rs.ids[r-1] >= id {
				t.Fatalf("tier %d: ids not ascending at row %d", ti, r)
			}
			if (id < st.frozenBound) != (ti == coldTier) {
				t.Fatalf("tier %d holds id %d, frozenBound %d", ti, id, st.frozenBound)
			}
			if rs.dead[r] {
				dead++
				continue
			}
			for a, idx := range rs.index {
				if idx == nil {
					continue
				}
				if expect[a] == nil {
					expect[a] = map[mapKey][]row{}
				}
				k := idx.keyOf(rs.tups[r].Values[a])
				expect[a][k] = append(expect[a][k], row(r))
			}
		}
		if dead != rs.nDead || rs.head > len(rs.ids) || slices.Contains(rs.dead[:rs.head], false) {
			t.Fatalf("tier %d: nDead %d head %d, counted %d dead", ti, rs.nDead, rs.head, dead)
		}
		keys := 0
		for a, idx := range rs.index {
			if idx == nil {
				continue
			}
			keys += idx.len()
			if idx.len() != len(expect[a]) {
				t.Fatalf("tier %d attr %d: %d buckets, want %d", ti, a, idx.len(), len(expect[a]))
			}
			for k, rows := range expect[a] {
				if got, _ := idx.get(k); !slices.Equal(got, rows) {
					t.Fatalf("tier %d attr %d key %v: bucket %v, live rows holding it %v", ti, a, k, got, rows)
				}
			}
		}
		sm.checkSpare(ti, rs, keys)
	}
}

// checkSpare holds a tier's spare buckets to their rules: empty, sharing
// no slot of their arrays with a live key's bucket or with each other, and
// no more of them than the tier's index held keys at its peak, live keys
// included (only a new key with no spare to take allocates a bucket).
func (sm *stateModel) checkSpare(ti int, rs *rowStore, keys int) {
	t := sm.t
	t.Helper()
	owner := map[*row]string{}
	claim := func(b []row, who string) {
		b = b[:cap(b)]
		for i := range b {
			if prev, ok := owner[&b[i]]; ok {
				t.Fatalf("tier %d: %s shares an array slot with %s", ti, who, prev)
			}
			owner[&b[i]] = who
		}
	}
	for a, idx := range rs.index {
		if idx != nil {
			idx.each(func(k mapKey, b []row) { claim(b, fmt.Sprintf("attr %d key %v", a, k)) })
		}
	}
	for i, b := range rs.spare {
		if len(b) != 0 {
			t.Fatalf("tier %d: spare bucket %d holds rows %v", ti, i, b)
		}
		claim(b, fmt.Sprintf("spare bucket %d", i))
	}
	if sm.keyPeak == nil {
		sm.keyPeak = map[*rowStore]int{}
	}
	sm.keyPeak[rs] = max(sm.keyPeak[rs], keys)
	if keys+len(rs.spare) > sm.keyPeak[rs] {
		t.Fatalf("tier %d: %d keys and %d spare buckets, but the index never held more than %d keys",
			ti, keys, len(rs.spare), sm.keyPeak[rs])
	}
}

// runStateModel drives ops — (code, argument) byte pairs — checking the
// live state and a restored copy after every step. It reports whether the
// hot and the cold tier were seen to compact, and whether an insert took
// a spare bucket.
func runStateModel(t *testing.T, ops []byte) (compacted [2]bool, reused bool) {
	sm := newStateModel(t)
	for i := 0; i+1 < len(ops); i += 2 {
		var rows [2]int
		for ti, rs := range sm.st().tiers() {
			if rs != nil {
				rows[ti] = len(rs.ids)
			}
		}
		sm.step(ops[i], ops[i+1])
		sm.check(sm.st())
		restored := sm.roundTrip().states[0]
		sm.check(restored)
		for ti, rs := range restored.tiers() {
			if rs != nil && len(rs.spare) != 0 {
				t.Fatalf("tier %d restored with %d spare buckets", ti, len(rs.spare))
			}
		}
		// A tier that lost rows without a freeze (or a restore) compacted.
		if code := ops[i] % 8; code != 5 && code != 7 {
			for ti, rs := range sm.st().tiers() {
				compacted[ti] = compacted[ti] || rs != nil && len(rs.ids) < rows[ti]
			}
		}
	}
	return compacted, sm.reused
}

func TestJoinStateModel(t *testing.T) {
	var compacted [2]bool
	reused := false
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 2*150)
		rand.New(rand.NewSource(seed)).Read(ops)
		c, r := runStateModel(t, ops)
		compacted = [2]bool{compacted[0] || c[0], compacted[1] || c[1]}
		reused = reused || r
	}
	if !compacted[hotTier] || !compacted[coldTier] || !reused {
		t.Fatalf("compaction seen: cold %v, hot %v; spare bucket reused %v — the test is vacuous",
			compacted[coldTier], compacted[hotTier], reused)
	}
}

// stateModelSeeds are hand-written runs: fill, purge by key until the hot
// tier compacts twice, freeze, purge the cold segment until it recompacts
// and is released, evict, restore and continue.
var stateModelSeeds = [][]byte{
	{0, 47, 0, 47, 0, 47, 3, 0, 3, 1, 3, 2, 0, 47, 3, 3, 3, 4, 3, 5, 0, 20, 3, 0},
	{0, 47, 1, 47, 0, 47, 5, 0, 5, 0, 0, 30, 3, 1, 3, 2, 3, 3, 3, 4, 7, 1, 3, 5, 3, 0, 0, 9},
	{1, 40, 1, 40, 1, 40, 7, 0, 4, 0, 4, 1, 6, 31, 6, 31, 0, 12, 5, 0, 2, 200, 7, 1, 6, 31},
	{0, 47, 0, 47, 6, 31, 6, 31, 6, 31, 0, 47, 5, 0, 0, 47, 5, 0, 4, 3, 2, 9, 7, 3, 4, 0},
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
