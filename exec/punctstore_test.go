package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"punctsafe/stream"
)

// Punctuation-store model test. A punctStore is driven through add (fresh,
// duplicate, widened <= bound, replacing an expired entry), remove,
// expire and each, plus the marks the operator puts on a live entry
// (propagated, round), while a plain map[string]stream.Punctuation tracks
// what must be stored. After every step the store's entries are checked
// against the map, and its recycling against its rules: no live entry is
// pooled, no two live keys share an entry, every free entry is zero, an
// entry removed since the last add is intact, and no more entries exist
// than the store ever held at once. The operations come from a byte
// string, so the randomised test and the fuzz target share one driver.

// storeModelSchema is R(K int, S string, T int) with five schemes: K (a
// bit-keyed entry), S (a string key), K with T a <= bound (a watermark
// keyed by K's bits), K and S (a composite key), and T alone a <= bound (a
// pure watermark, one entry held without a map).
func storeModelSchema() (*stream.Schema, []stream.Scheme) {
	sc := stream.MustSchema("R",
		stream.Attribute{Name: "K", Kind: stream.KindInt},
		stream.Attribute{Name: "S", Kind: stream.KindString},
		stream.Attribute{Name: "T", Kind: stream.KindInt})
	return sc, []stream.Scheme{
		stream.MustScheme("R", true, false, false),
		stream.MustScheme("R", false, true, false),
		stream.MustOrderedScheme("R", []bool{true, false, true}, []bool{false, false, true}),
		stream.MustScheme("R", true, true, false),
		stream.MustOrderedScheme("R", []bool{false, false, true}, []bool{false, false, true}),
	}
}

// storeModelEq lists each scheme's equality attributes: the model's key.
var storeModelEq = [][]int{{0}, {1}, {0}, {0, 1}, {}}

type storeModel struct {
	t       *testing.T
	ps      *punctStore
	model   map[string]stream.Punctuation
	expires map[string]uint64
	now     uint64
	peak    int
	// made is every entry the store ever handed out, retired holds the
	// punctuation each entry removed since the last add must still hold.
	made    map[*punctEntry]bool
	retired map[*punctEntry]string
}

func newStoreModel(t *testing.T) *storeModel {
	sc, schemes := storeModelSchema()
	return &storeModel{t: t, ps: newPunctStore(sc, schemes), model: map[string]stream.Punctuation{},
		expires: map[string]uint64{}, made: map[*punctEntry]bool{}, retired: map[*punctEntry]string{}}
}

func modelKey(si int, p stream.Punctuation) string {
	var vs []stream.Value
	for _, a := range storeModelEq[si] {
		vs = append(vs, p.Pattern(a).Value())
	}
	return fmt.Sprint(si, "|", stream.KeyOf(vs...))
}

// expired is punctEntry.expired over the model.
func (sm *storeModel) expired(k string) bool {
	return sm.expires[k] != 0 && sm.now > sm.expires[k]
}

// sortedKeys returns the model's keys in a stable order.
func (sm *storeModel) sortedKeys() []string {
	keys := make([]string, 0, len(sm.model))
	for k := range sm.model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// entryOf finds the stored entry behind a model key.
func (sm *storeModel) entryOf(k string) (int, *punctEntry) {
	p := sm.model[k]
	si := sm.ps.schemeIndex(p)
	e, ok := sm.ps.find(si, sm.ps.constants(p))
	if !ok {
		sm.t.Fatalf("model holds %s, the store does not", p)
	}
	return si, e
}

func (sm *storeModel) step(code, arg byte) {
	t := sm.t
	sm.now++
	switch code % 6 {
	case 0, 1: // add; code 1 with a lifespan of 3
		var lifespan uint64
		if code%6 == 1 {
			lifespan = 3
		}
		sm.add(arg, lifespan)
	case 2: // remove the arg-th stored entry, then again
		keys := sm.sortedKeys()
		if len(keys) == 0 {
			return
		}
		k := keys[int(arg)%len(keys)]
		si, e := sm.entryOf(k)
		if !sm.ps.remove(si, e) {
			t.Fatalf("remove of stored %s reported it absent", sm.model[k])
		}
		if sm.ps.remove(si, e) {
			t.Fatalf("second remove of %s reported it stored", sm.model[k])
		}
		sm.retired[e] = sm.model[k].String()
		delete(sm.model, k)
		delete(sm.expires, k)
	case 3: // expire
		want := 0
		for _, k := range sm.sortedKeys() {
			if sm.expired(k) {
				_, e := sm.entryOf(k)
				sm.retired[e] = sm.model[k].String()
				delete(sm.model, k)
				delete(sm.expires, k)
				want++
			}
		}
		if got := sm.ps.expire(sm.now); got != want {
			t.Fatalf("expire removed %d entries, model %d", got, want)
		}
	case 4: // each visits the live entries once
		want := map[string]bool{}
		for k := range sm.model {
			if !sm.expired(k) {
				want[k] = true
			}
		}
		sm.ps.each(sm.now, func(si int, e *punctEntry) bool {
			k := modelKey(si, e.punct)
			if !want[k] {
				t.Fatalf("each visited %s (scheme %d), not live in the model", e.punct, si)
			}
			delete(want, k)
			return true
		})
		if len(want) != 0 {
			t.Fatalf("each missed %d live entries", len(want))
		}
	case 5: // the operator marks an entry; time passes
		if keys := sm.sortedKeys(); len(keys) > 0 {
			_, e := sm.entryOf(keys[int(arg)%len(keys)])
			e.propagated, e.round = true, uint64(arg)+1
		}
		sm.now += uint64(arg % 8)
	}
}

// add builds a punctuation from arg — scheme arg%6 (5: one that
// instantiates no scheme), K, S and the bound from the rest — and adds it.
func (sm *storeModel) add(arg byte, lifespan uint64) {
	t := sm.t
	si := int(arg % 6)
	k := stream.Int(int64(arg / 6 % 3))
	s := stream.Str([]string{"", "a", "b"}[arg/18%3])
	bound := stream.Int(int64(arg / 54 % 4))
	var p stream.Punctuation
	switch si {
	case 0:
		p = stream.MustPunctuation(stream.Const(k), stream.Wildcard(), stream.Wildcard())
	case 1:
		p = stream.MustPunctuation(stream.Wildcard(), stream.Const(s), stream.Wildcard())
	case 2:
		p = stream.MustPunctuation(stream.Const(k), stream.Wildcard(), stream.Leq(bound))
	case 3:
		p = stream.MustPunctuation(stream.Const(k), stream.Const(s), stream.Wildcard())
	case 4:
		p = stream.MustPunctuation(stream.Wildcard(), stream.Wildcard(), stream.Leq(bound))
	default:
		p = stream.MustPunctuation(stream.Const(k), stream.Wildcard(), stream.Const(bound))
	}
	e, gotSi := sm.ps.add(p, sm.now, lifespan)
	clear(sm.retired) // add reclaimed them
	if si == 5 {
		if e != nil {
			t.Fatalf("add of %s, which instantiates no scheme, returned an entry", p)
		}
		return
	}
	key := modelKey(si, p)
	old, stored := sm.model[key]
	news, fresh := true, false
	switch {
	case stored && !sm.expired(key) && si != 2 && si != 4:
		news = false // duplicate
	case stored && !sm.expired(key):
		le, _ := stream.LessEq(bound, old.Pattern(2).Value())
		news = !le // widened
		if news && lifespan > 0 {
			sm.expires[key] = sm.now + lifespan
		}
	default: // fresh, or replacing an expired entry
		fresh = true
		sm.expires[key] = 0
		if lifespan > 0 {
			sm.expires[key] = sm.now + lifespan
		}
	}
	if !news {
		if e != nil {
			t.Fatalf("add of %s over %s returned an entry", p, old)
		}
		return
	}
	sm.model[key] = p
	if e == nil || gotSi != si {
		t.Fatalf("add of %s returned entry %v for scheme %d, want scheme %d", p, e != nil, gotSi, si)
	}
	if e.punct.String() != p.String() || e.propagated || e.arrived != sm.now || e.expires != sm.expires[key] {
		t.Fatalf("add of %s: entry holds %s propagated %v arrived %d expires %d, want arrived %d expires %d",
			p, e.punct, e.propagated, e.arrived, e.expires, sm.now, sm.expires[key])
	}
	if fresh && e.round != 0 {
		t.Fatalf("fresh entry for %s carries round %d", p, e.round)
	}
	sm.made[e] = true
}

// check compares the store with the model and its pools with their rules.
func (sm *storeModel) check() {
	t := sm.t
	ps := sm.ps
	live := map[*punctEntry]bool{}
	for si, m := range ps.entries {
		if len(storeModelEq[si]) == 0 && (m.num != nil || m.str != nil) {
			t.Fatalf("scheme %d has no equality constant and holds its entry in a map", si)
		}
		m.each(func(k mapKey, e *punctEntry) {
			if live[e] {
				t.Fatalf("two live keys share the entry of %s", e.punct)
			}
			live[e] = true
			if e.key != k {
				t.Fatalf("entry of %s records key %v, stored under %v", e.punct, e.key, k)
			}
			if p, ok := sm.model[modelKey(si, e.punct)]; !ok || p.String() != e.punct.String() {
				t.Fatalf("store holds %s (scheme %d), model %s", e.punct, si, p)
			}
		})
	}
	if len(live) != len(sm.model) || ps.size != len(sm.model) {
		t.Fatalf("store holds %d entries, size %d, model %d", len(live), ps.size, len(sm.model))
	}
	pooled := map[*punctEntry]bool{}
	for i, pool := range [][]*punctEntry{ps.free, ps.retired} {
		for _, e := range pool {
			if live[e] || pooled[e] {
				t.Fatalf("pool %d holds the entry of %s twice or while it is live", i, e.punct)
			}
			pooled[e] = true
		}
	}
	for _, e := range ps.free {
		if !reflect.ValueOf(*e).IsZero() {
			t.Fatalf("free entry not zero: %+v", *e)
		}
	}
	for e, p := range sm.retired {
		if !pooled[e] || e.punct.String() != p {
			t.Fatalf("entry removed since the last add holds %s, was %s (pooled %v)", e.punct, p, pooled[e])
		}
	}
	sm.peak = max(sm.peak, len(sm.model))
	if len(sm.made) > sm.peak || len(live)+len(pooled) != len(sm.made) {
		t.Fatalf("store made %d entries, holds %d live and %d pooled; it never held more than %d",
			len(sm.made), len(live), len(pooled), sm.peak)
	}
}

func runStoreModel(t *testing.T, ops []byte) {
	sm := newStoreModel(t)
	for i := 0; i+1 < len(ops); i += 2 {
		sm.step(ops[i], ops[i+1])
		sm.check()
	}
}

func TestPunctStoreModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 2*300)
		rand.New(rand.NewSource(seed)).Read(ops)
		runStoreModel(t, ops)
	}
}

// punctStoreSeeds are hand-written runs: fresh adds of every scheme, a
// duplicate, widened and narrower bounds (keyed and pure watermarks),
// entries that expire and are replaced in place, removals reused by the
// next add, marks on an entry that a removal and a reuse must not carry
// over.
var punctStoreSeeds = [][]byte{
	{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 0, 0, 56, 0, 110, 0, 56, 0, 58, 0, 4, 4, 0, 5, 0, 2, 0, 0, 6, 4, 0},
	{1, 0, 1, 19, 5, 7, 3, 0, 1, 0, 4, 0, 5, 3, 1, 19, 3, 0, 0, 2, 4, 0, 1, 4, 5, 7, 3, 0, 1, 58, 4, 0},
	{0, 0, 5, 0, 2, 0, 0, 6, 2, 0, 0, 12, 5, 1, 2, 1, 0, 0, 4, 0, 2, 0, 2, 0, 0, 3, 0, 9, 0, 4, 2, 0, 0, 4, 4, 0},
	{1, 2, 1, 8, 1, 14, 5, 7, 0, 2, 0, 8, 0, 14, 2, 0, 3, 0, 4, 0},
}

func FuzzPunctStore(f *testing.F) {
	for _, s := range punctStoreSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2*128 {
			ops = ops[:2*128]
		}
		runStoreModel(t, ops)
	})
}
