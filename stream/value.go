// Package stream defines the data model for punctuated data streams:
// typed attribute values, relational schemas, tuples, punctuations
// (Tucker et al.'s pattern notation), punctuation schemes (the paper's
// compile-time description of which punctuations an application may
// generate), and the stream elements that interleave tuples and
// punctuations on a single ordered feed.
package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
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

// Value is a compact tagged union holding one attribute value. It avoids
// interface boxing on the join hot path: numeric payloads live in num and
// strings in str.
type Value struct {
	kind Kind
	num  uint64
	str  string
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Float returns a floating point Value.
func Float(v float64) Value {
	return Value{kind: KindFloat, num: floatBits(v)}
}

// String returns a string Value. (The constructor is named Str to leave
// the String method for fmt.Stringer.)
func Str(v string) Value { return Value{kind: KindString, str: v} }

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload; it panics if the value is not an int.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("stream: AsInt on " + v.kind.String() + " value")
	}
	return int64(v.num)
}

// AsFloat returns the float payload; it panics if the value is not a float.
func (v Value) AsFloat() float64 {
	if v.kind != KindFloat {
		panic("stream: AsFloat on " + v.kind.String() + " value")
	}
	return floatFromBits(v.num)
}

// AsString returns the string payload; it panics if the value is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("stream: AsString on " + v.kind.String() + " value")
	}
	return v.str
}

// Bits returns the 64 payload bits of a numeric value (the integer, or the
// float's normalized IEEE bits): two values of one numeric kind are Equal
// exactly when their Bits are, so containers whose kind is fixed by a
// schema can key on it directly. A string value has no numeric payload
// and returns 0.
func (v Value) Bits() uint64 { return v.num }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	return v.kind == o.kind && v.num == o.num && v.str == o.str
}

// Key returns a hashable representation suitable for use as a Go map key
// in join hash tables and punctuation indexes.
func (v Value) Key() ValueKey {
	return ValueKey{kind: v.kind, num: v.num, str: v.str}
}

// ValueKey is the comparable form of a Value.
type ValueKey struct {
	kind Kind
	num  uint64
	str  string
}

// Value reconstructs the Value a key was derived from.
func (k ValueKey) Value() Value { return Value{kind: k.kind, num: k.num, str: k.str} }

// String renders the value as a literal.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(floatFromBits(v.num), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str)
	default:
		return "<invalid>"
	}
}

// Zero returns the zero value of a kind (0, 0.0, "").
func Zero(k Kind) Value {
	switch k {
	case KindInt:
		return Int(0)
	case KindFloat:
		return Float(0)
	case KindString:
		return Str("")
	default:
		panic(fmt.Sprintf("stream: Zero of invalid kind %d", k))
	}
}

// LessEq reports v <= bound for numeric values of the same kind; ok is
// false when the values are not comparable (different or non-numeric
// kinds).
func LessEq(v, bound Value) (le, ok bool) {
	if v.kind != bound.kind {
		return false, false
	}
	switch v.kind {
	case KindInt:
		return int64(v.num) <= int64(bound.num), true
	case KindFloat:
		return floatFromBits(v.num) <= floatFromBits(bound.num), true
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
		dst = append(dst, byte(v.kind))
		binary.LittleEndian.PutUint64(buf[:], v.num)
		dst = append(dst, buf[:]...)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(v.str)))
		dst = append(dst, buf[:]...)
		dst = append(dst, v.str...)
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
