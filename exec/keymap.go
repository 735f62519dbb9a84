package exec

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"punctsafe/stream"
)

// mapKey addresses one keyMap entry: bits in a numeric container, s in a
// string one. Which field is live is a property of the container.
type mapKey struct {
	bits uint64
	s    string
}

// keyMap is the package's one hash container: the join-state indexes and
// the punctuation store all sit on it. It is specialised to
// the kind of what it indexes instead of hashing a tagged value: a numeric
// attribute is keyed by its 64 payload bits (Go's fast 64-bit map path), a
// string attribute by the string, and a composite constant list by its
// stream.AppendKey encoding. The kind can be trusted because it is fixed
// by the schema and every element is validated against the schema before
// it reaches a state (pushTuple, pushPunct, the snapshot codec), and join
// predicates only link attributes of one kind.
//
// The zero keyMap, with neither map, holds at most one entry, under any
// key: the container of a punctuation scheme with no equality constant (a
// pure watermark), whose every instantiation has the same, empty key.
type keyMap[V any] struct {
	num map[uint64]V
	str map[string]V
	one V
	has bool     // whether a zero keyMap holds one
	ord []mapKey // eachSorted's reusable sort buffer
}

func newKeyMap[V any](numeric bool) *keyMap[V] {
	if numeric {
		return &keyMap[V]{num: make(map[uint64]V)}
	}
	return &keyMap[V]{str: make(map[string]V)}
}

// keyOf is the key of one attribute value.
func (m *keyMap[V]) keyOf(v stream.Value) mapKey {
	if m.num != nil {
		return mapKey{bits: v.Bits()}
	}
	return mapKey{s: v.AsString()}
}

func (m *keyMap[V]) get(k mapKey) (V, bool) {
	if m.num != nil {
		v, ok := m.num[k.bits]
		return v, ok
	}
	if m.str != nil {
		v, ok := m.str[k.s]
		return v, ok
	}
	return m.one, m.has
}

// getEncoded probes a string or zero container with key bytes; unlike
// get(mapKey{s: string(b)}) it does not allocate the string.
func (m *keyMap[V]) getEncoded(b []byte) (V, bool) {
	if m.str == nil {
		return m.one, m.has
	}
	v, ok := m.str[string(b)]
	return v, ok
}

func (m *keyMap[V]) put(k mapKey, v V) {
	switch {
	case m.num != nil:
		m.num[k.bits] = v
	case m.str != nil:
		m.str[k.s] = v
	default:
		m.one, m.has = v, true
	}
}

func (m *keyMap[V]) del(k mapKey) {
	switch {
	case m.num != nil:
		delete(m.num, k.bits)
	case m.str != nil:
		delete(m.str, k.s)
	default:
		var zero V
		m.one, m.has = zero, false
	}
}

func (m *keyMap[V]) len() int {
	if m.has {
		return 1
	}
	return len(m.num) + len(m.str)
}

// each visits every entry in no particular order; fn may put or delete
// the key it is visiting.
func (m *keyMap[V]) each(fn func(mapKey, V)) {
	for b, v := range m.num {
		fn(mapKey{bits: b}, v)
	}
	for s, v := range m.str {
		fn(mapKey{s: s}, v)
	}
	if m.has {
		fn(mapKey{}, m.one)
	}
}

// eachSorted visits the entries until fn returns false, in ascending
// order of the keys' stream.AppendKey encoding — the order that keeps
// sweep-time emission and snapshots identical from run to run. String
// keys are walked in string order (the punctuation store's string keys
// are encodings already); a numeric key's encoding is its little-endian
// bits between constant bytes, so byte-reversed bits sort the same way.
func (m *keyMap[V]) eachSorted(fn func(V) bool) {
	keys := m.ord[:0]
	for b := range m.num {
		keys = append(keys, mapKey{bits: bits.ReverseBytes64(b)})
	}
	for s := range m.str {
		keys = append(keys, mapKey{s: s})
	}
	if m.has {
		keys = append(keys, mapKey{})
	}
	m.ord = keys
	slices.SortFunc(keys, func(a, b mapKey) int {
		if c := cmp.Compare(a.bits, b.bits); c != 0 {
			return c
		}
		return strings.Compare(a.s, b.s)
	})
	for _, k := range keys {
		k.bits = bits.ReverseBytes64(k.bits)
		if v, ok := m.get(k); ok && !fn(v) {
			return
		}
	}
}
