// Package stream defines the data model for punctuated data streams:
// typed attribute values, relational schemas, tuples, punctuations
// (Tucker et al.'s pattern notation), punctuation schemes (the paper's
// compile-time description of which punctuations an application may
// generate), and the stream elements that interleave tuples and
// punctuations on a single ordered feed.
package stream

import (
	"encoding/binary"
	"math"
	"strconv"
	"unsafe"
)

// Kind enumerates the attribute types supported by the engine.
type Kind uint8

const (
	// KindInvalid is the zero Kind; no valid value carries it.
	KindInvalid Kind = iota
	// KindInt is a 64-bit signed integer attribute.
	KindInt
	// KindFloat is a 64-bit floating point attribute.
	KindFloat
	// KindString is a string attribute.
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return "invalid"
	}
}

// Value is a compact tagged union holding one attribute value in two
// machine words (16 bytes), so that a result tuple, a decoded element or a
// punctuation costs 16 bytes per column on the heap. It avoids interface
// boxing on the join hot path.
//
// The first word p is a pointer the garbage collector sees as any other:
// it is nil (the invalid value), the address of one of the package's tag
// bytes (tagInt, tagFloat, tagEmpty), or the data pointer of a non-empty
// string. The second word n is the numeric payload (the integer, or the
// float's normalized IEEE bits) or the string's length. Tag addresses are
// only ever compared, never dereferenced; string bytes are immutable, so
// rebuilding the string with unsafe.String is sound. The empty string has
// its own tag because unsafe.StringData("") is unspecified.
//
// Two Values are compared with Equal, never with ==: the pointer word of
// a string is its backing array, not its contents. The zero-length
// func array makes the struct non-comparable, so == on a Value, Pattern or
// Tuple and a Value map key do not compile; ValueKey is the comparable
// form. reflect.DeepEqual compares the pointer word too: it agrees with
// Equal on numeric values (every int shares one tag address) and on
// strings sharing a backing array, and may report two equal strings from
// different arrays as different.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// tags provides the distinct addresses that mark a pointer word as a kind
// (or, in a Pattern, a pattern form) instead of string data. No element
// is ever read or written.
var tags [6]byte

// Indexes into tags. The last three mark pattern forms and appear only in
// the Value inside a Pattern (punctuation.go).
const (
	tagInt = iota
	tagFloat
	tagEmpty
	tagWild
	tagLeqInt
	tagLeqFloat
)

// tag returns the address standing for tag index i.
func tag(i int) unsafe.Pointer { return unsafe.Pointer(&tags[i]) }

// Int returns an integer Value.
func Int(v int64) Value { return Value{p: tag(tagInt), n: uint64(v)} }

// Float returns a floating point Value.
func Float(v float64) Value {
	return Value{p: tag(tagFloat), n: floatBits(v)}
}

// String returns a string Value. (The constructor is named Str to leave
// the String method for fmt.Stringer.)
func Str(v string) Value {
	if len(v) == 0 {
		return Value{p: tag(tagEmpty)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Kind returns the kind of the value.
func (v Value) Kind() Kind {
	// The first three tags are laid out in Kind order, so a tag's offset
	// in the array is its kind less one; nil (far below the array) and
	// string data (anywhere else) fall outside it.
	if off := uintptr(v.p) - uintptr(tag(0)); off <= tagEmpty {
		return Kind(off) + KindInt
	}
	if v.p == nil {
		return KindInvalid
	}
	return KindString
}

// str returns the string payload of a string value and "" for any other.
func (v Value) str() string {
	if v.n == 0 || v.Kind() != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// AsInt returns the integer payload; it panics if the value is not an int.
func (v Value) AsInt() int64 {
	if v.p != tag(tagInt) {
		panic("stream: AsInt on " + v.Kind().String() + " value")
	}
	return int64(v.n)
}

// AsFloat returns the float payload; it panics if the value is not a float.
func (v Value) AsFloat() float64 {
	if v.p != tag(tagFloat) {
		panic("stream: AsFloat on " + v.Kind().String() + " value")
	}
	return math.Float64frombits(v.n) // not floatFromBits: its cost tips AsFloat over the inlining budget
}

// AsString returns the string payload; it panics if the value is not a string.
func (v Value) AsString() string {
	if v.Kind() != KindString {
		panic("stream: AsString on " + v.Kind().String() + " value")
	}
	return v.str()
}

// Bits returns the 64 payload bits of a numeric value (the integer, or the
// float's normalized IEEE bits): two values of one numeric kind are Equal
// exactly when their Bits are, so containers whose kind is fixed by a
// schema can key on it directly. A string value has no numeric payload
// and returns 0.
func (v Value) Bits() uint64 {
	// tagInt and tagFloat are the first two tags: one range check.
	if uintptr(v.p)-uintptr(tag(0)) <= tagFloat {
		return v.n
	}
	return 0
}

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	if v.p == o.p {
		// Same tag, or the same string data: the second word decides.
		return v.n == o.n
	}
	return v.n == o.n && equalStrings(v, o)
}

// equalStrings is Equal's slow path, for values whose pointer words
// differ: only two non-empty strings of one length can still be equal.
func equalStrings(v, o Value) bool {
	return v.Kind() == KindString && o.Kind() == KindString && v.str() == o.str()
}

// Key returns a hashable representation suitable for use as a Go map key
// in join hash tables and punctuation indexes.
func (v Value) Key() ValueKey {
	return ValueKey{kind: v.Kind(), num: v.Bits(), str: v.str()}
}

// ValueKey is the comparable form of a Value.
type ValueKey struct {
	kind Kind
	num  uint64
	str  string
}

// Value reconstructs the Value a key was derived from.
func (k ValueKey) Value() Value {
	switch k.kind {
	case KindInt:
		return Value{p: tag(tagInt), n: k.num}
	case KindFloat:
		return Value{p: tag(tagFloat), n: k.num}
	case KindString:
		return Str(k.str)
	default:
		return Value{}
	}
}

// String renders the value as a literal.
func (v Value) String() string {
	var buf [24]byte
	return string(v.appendTo(buf[:0]))
}

// appendTo appends the value's literal to dst.
func (v Value) appendTo(dst []byte) []byte {
	switch v.Kind() {
	case KindInt:
		return strconv.AppendInt(dst, int64(v.n), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, floatFromBits(v.n), 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(dst, v.str())
	default:
		return append(dst, "<invalid>"...)
	}
}

// LessEq reports v <= bound for numeric values of the same kind; ok is
// false when the values are not comparable (different or non-numeric
// kinds).
func LessEq(v, bound Value) (le, ok bool) {
	if v.p != bound.p {
		return false, false
	}
	switch v.p {
	case tag(tagInt):
		return int64(v.n) <= int64(bound.n), true
	case tag(tagFloat):
		return floatFromBits(v.n) <= floatFromBits(bound.n), true
	default:
		return false, false
	}
}

// KeyOf encodes a value list as an injective string key, suitable for
// hash-map composite keys (e.g. multi-attribute punctuation constants):
// kind byte, fixed-width numeric payload, then length-prefixed string
// payload per value.
func KeyOf(values ...Value) string {
	return string(AppendKey(nil, values...))
}

// AppendKey appends the KeyOf encoding of the value list to dst and
// returns the extended slice. Callers that reuse dst and look the key up
// via m[string(dst)] get composite-key map probes with no per-probe
// allocation (the compiler elides the string conversion in that pattern).
func AppendKey(dst []byte, values ...Value) []byte {
	var buf [8]byte
	for _, v := range values {
		dst = append(dst, byte(v.Kind()))
		binary.LittleEndian.PutUint64(buf[:], v.Bits())
		dst = append(dst, buf[:]...)
		str := v.str()
		binary.LittleEndian.PutUint64(buf[:], uint64(len(str)))
		dst = append(dst, buf[:]...)
		dst = append(dst, str...)
	}
	return dst
}

func floatBits(f float64) uint64 {
	// Normalize negative zero so Equal/Key behave as equality on the
	// observable value.
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
