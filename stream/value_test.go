package stream

// The two-word Value and Pattern against a plain reference: refValue is
// the three-field struct the 16-byte layout replaced, with its observable
// functions written the obvious way, and valueVectors are outputs recorded
// from that representation before it was replaced. Everything that routes,
// keys, prints or serializes a value must agree with both.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the sizes the allocation figures rest on: a field
// added to Value or Pattern fails here before it shows in a benchmark.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", n)
	}
	if n := unsafe.Sizeof(Pattern{}); n != 16 {
		t.Errorf("unsafe.Sizeof(Pattern{}) = %d, want 16", n)
	}
	// An element is a tuple or a punctuation side by side, no tag: a
	// punctuation is a shape pointer and its constants.
	if n := unsafe.Sizeof(Element{}); n != 56 {
		t.Errorf("unsafe.Sizeof(Element{}) = %d, want 56", n)
	}
	if n := unsafe.Sizeof(Punctuation{}); n > 32 {
		t.Errorf("unsafe.Sizeof(Punctuation{}) = %d, want at most 32", n)
	}
	if reflect.TypeOf(Value{}).Comparable() || reflect.TypeOf(Pattern{}).Comparable() {
		t.Error("Value and Pattern must not be comparable: == would compare string pointers")
	}
	// Documented: DeepEqual agrees with Equal on numeric values, because
	// every value of one numeric kind carries the same tag address.
	if !reflect.DeepEqual(NewTuple(Int(5), Float(2.5)), NewTuple(Int(5), Float(2.5))) {
		t.Error("reflect.DeepEqual must hold for equal numeric tuples")
	}
	if (Value{}).Kind() != KindInvalid || (Pattern{}).IsWildcard() || (Pattern{}).IsLeq() ||
		(Pattern{}).Value().Kind() != KindInvalid {
		t.Error("the zero Value is invalid and the zero Pattern is its constant")
	}
}

// refValue is the reference model of a Value.
type refValue struct {
	kind Kind
	num  uint64 // int bits, or normalized float bits; 0 for a string
	str  string
}

func refFloat(f float64) refValue {
	if f == 0 {
		f = 0 // negative zero normalizes
	}
	return refValue{kind: KindFloat, num: math.Float64bits(f)}
}

func (r refValue) value() Value {
	switch r.kind {
	case KindInt:
		return Int(int64(r.num))
	case KindFloat:
		return Float(math.Float64frombits(r.num))
	case KindString:
		return Str(r.str)
	}
	return Value{}
}

func (r refValue) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	mix(byte(r.kind))
	for i := 0; i < 8; i++ {
		mix(byte(r.num >> (8 * i)))
	}
	for i := 0; i < len(r.str); i++ {
		mix(r.str[i])
	}
	return h
}

func (r refValue) appendKey(dst []byte) []byte {
	dst = append(dst, byte(r.kind))
	dst = binary.LittleEndian.AppendUint64(dst, r.num)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(r.str)))
	return append(dst, r.str...)
}

func (r refValue) String() string {
	switch r.kind {
	case KindInt:
		return strconv.FormatInt(int64(r.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(r.num), 'g', -1, 64)
	case KindString:
		return strconv.Quote(r.str)
	}
	return "<invalid>"
}

func refLessEq(v, bound refValue) (le, ok bool) {
	if v.kind != bound.kind {
		return false, false
	}
	switch v.kind {
	case KindInt:
		return int64(v.num) <= int64(bound.num), true
	case KindFloat:
		return math.Float64frombits(v.num) <= math.Float64frombits(bound.num), true
	}
	return false, false
}

// checkValue compares every observable of r's Value with the model.
func checkValue(t *testing.T, r refValue) {
	t.Helper()
	v := r.value()
	if v.Kind() != r.kind {
		t.Fatalf("%.40s: Kind = %s, want %s", r, v.Kind(), r.kind)
	}
	switch r.kind {
	case KindInt:
		if v.AsInt() != int64(r.num) {
			t.Fatalf("%s: AsInt = %d", r, v.AsInt())
		}
	case KindFloat:
		if math.Float64bits(v.AsFloat()) != r.num {
			t.Fatalf("%s: AsFloat bits = %#x, want %#x", r, math.Float64bits(v.AsFloat()), r.num)
		}
	case KindString:
		if v.AsString() != r.str {
			t.Fatalf("%s: AsString has %d bytes, want %d", r.kind, len(v.AsString()), len(r.str))
		}
	}
	if v.Bits() != r.num {
		t.Fatalf("%s: Bits = %d, want %d", r.kind, v.Bits(), r.num)
	}
	if v.Hash() != r.hash() {
		t.Fatalf("%s: Hash = %#x, want %#x", r.kind, v.Hash(), r.hash())
	}
	if !bytes.Equal(AppendKey(nil, v), r.appendKey(nil)) {
		t.Fatalf("%s: AppendKey differs from the reference encoding", r.kind)
	}
	if v.String() != r.String() {
		t.Fatalf("%s: String = %.40s, want %.40s", r.kind, v.String(), r.String())
	}
	if back := v.Key().Value(); !back.Equal(v) || back.Kind() != r.kind {
		t.Fatalf("%s: Key().Value() = %.40s", r.kind, back)
	}
	if r.kind == KindInvalid {
		return // no schema has an invalid attribute
	}

	// Codec round trip, as a tuple attribute and as a constant pattern.
	c := NewCodec(MustSchema("s", Attribute{Name: "a", Kind: r.kind}))
	for _, e := range []Element{TupleElement(NewTuple(v)), PunctElement(MustPunctuation(Const(v)))} {
		wire, err := c.Encode(nil, e)
		if err != nil {
			t.Fatalf("%s: Encode: %v", r.kind, err)
		}
		got, rest, err := c.Decode(wire)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: Decode: %v, %d bytes left", r.kind, err, len(rest))
		}
		var dv Value
		if got.IsPunct() {
			dv = got.Punct().Pattern(0).Value()
		} else {
			dv = got.Tuple().Values[0]
		}
		if got.IsPunct() != e.IsPunct() || !dv.Equal(v) {
			t.Fatalf("%s: codec round trip changed the value", r.kind)
		}
	}
}

// checkPair compares the two-value relations with the model.
func checkPair(t *testing.T, a, b refValue) {
	t.Helper()
	va, vb := a.value(), b.value()
	want := a == b
	if got := va.Equal(vb); got != want {
		t.Fatalf("%.40s Equal %.40s = %v, want %v", a, b, got, want)
	}
	if got := vb.Equal(va); got != want {
		t.Fatalf("Equal is not symmetric on %.40s, %.40s", a, b)
	}
	if got := va.Key() == vb.Key(); got != want {
		t.Fatalf("Key()==Key() on %.40s, %.40s = %v, want %v", a, b, got, want)
	}
	if got := KeyOf(va) == KeyOf(vb); got != want {
		t.Fatalf("KeyOf equality on %.40s, %.40s = %v, want %v", a, b, got, want)
	}
	if want && va.Hash() != vb.Hash() {
		t.Fatalf("equal values %.40s hash differently", a)
	}
	le, ok := LessEq(va, vb)
	wle, wok := refLessEq(a, b)
	if le != wle || ok != wok {
		t.Fatalf("LessEq(%.40s, %.40s) = %v,%v, want %v,%v", a, b, le, ok, wle, wok)
	}
	if !bytes.Equal(AppendKey(nil, va, vb), b.appendKey(a.appendKey(nil))) {
		t.Fatalf("AppendKey of the pair %.40s, %.40s differs from the reference", a, b)
	}

	// Patterns over a, matched against b.
	if got := Const(va).MatchesValue(vb); got != want {
		t.Fatalf("Const(%.40s) matches %.40s = %v, want %v", a, b, got, want)
	}
	if !Wildcard().MatchesValue(vb) {
		t.Fatalf("the wildcard does not match %.40s", b)
	}
	if a.kind == KindInt || a.kind == KindFloat {
		p := Leq(va)
		if !p.IsLeq() || p.IsWildcard() || !p.Value().Equal(va) || p.String() != "<="+a.String() {
			t.Fatalf("Leq(%s) = %s: IsLeq %v, Value %s", a, p, p.IsLeq(), p.Value())
		}
		wle, wok := refLessEq(b, a)
		if got := p.MatchesValue(vb); got != (wle && wok) {
			t.Fatalf("Leq(%s) matches %.40s = %v, want %v", a, b, got, wle && wok)
		}
	} else if p := Leq(va); p.IsLeq() || p.IsWildcard() || p.Value().Kind() != KindInvalid {
		t.Fatalf("Leq of the unordered value %.40s = %s, want the zero Pattern", a, p)
	}
}

// corpus returns the fixed values every run checks: numeric edge cases and
// the string shapes the pointer word could get wrong.
func corpus() []refValue {
	parent := string([]byte("hello world")) // heap copies, not one literal
	other := string([]byte("hello"))
	return []refValue{
		{},
		{kind: KindInt}, {kind: KindInt, num: 1}, {kind: KindInt, num: ^uint64(0)},
		{kind: KindInt, num: 1 << 63}, {kind: KindInt, num: 1<<63 - 1},
		refFloat(0), refFloat(math.Copysign(0, -1)), refFloat(1.5), refFloat(-2.25),
		refFloat(math.NaN()), refFloat(math.Inf(1)), refFloat(math.Inf(-1)),
		refFloat(math.SmallestNonzeroFloat64), refFloat(math.MaxFloat64),
		{kind: KindString}, // ""
		{kind: KindString, str: parent},
		{kind: KindString, str: parent[:5]},  // parent's pointer, shorter
		{kind: KindString, str: parent[6:]},  // interior pointer
		{kind: KindString, str: parent[3:3]}, // empty, cut from a non-empty string
		{kind: KindString, str: other},       // equals parent[:5], another array
		{kind: KindString, str: "héllo\x00\xff"},
		{kind: KindString, str: strings.Repeat("x", 1<<20)},
		{kind: KindString, str: strings.Repeat("x", 1<<20-1) + "y"},
	}
}

// isHuge marks the megabyte strings, which are paired with the corpus only:
// each pair check copies and hashes both values several times.
func isHuge(r refValue) bool { return len(r.str) > 1<<10 }

func TestValueAgainstReference(t *testing.T) {
	fixed := corpus()
	var vals []refValue
	for _, r := range fixed {
		if !isHuge(r) {
			vals = append(vals, r)
		}
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		switch rng.Intn(3) {
		case 0:
			vals = append(vals, refValue{kind: KindInt, num: rng.Uint64() >> uint(rng.Intn(64))})
		case 1:
			vals = append(vals, refFloat(math.Float64frombits(rng.Uint64())))
		default:
			b := make([]byte, rng.Intn(12))
			for j := range b {
				b[j] = "ab\x00"[rng.Intn(3)] // a small alphabet, so equal strings recur
			}
			vals = append(vals, refValue{kind: KindString, str: string(b)})
		}
	}
	for _, set := range [][]refValue{fixed, vals} {
		for i, a := range set {
			checkValue(t, a)
			for _, b := range set[i:] {
				checkPair(t, a, b)
				checkPair(t, b, a)
			}
		}
	}
}

// valueVectors were printed by the three-field representation (commit
// 7606192): Hash, Bits, AppendKey and String of each value. A key or
// literal longer than 64 bytes is recorded as its length and SHA-256.
var valueVectors = []struct {
	name string
	v    Value
	hash uint64
	bits uint64
	key  string
	str  string
}{
	{"Value{}", Value{}, 0xe604823a249029bf, 0, "0000000000000000000000000000000000", "<invalid>"},
	{"Int(0)", Int(0), 0x529a2cdc8ff533ac, 0, "0100000000000000000000000000000000", "0"},
	{"Int(1)", Int(1), 0x7194f3e59ae47dcd, 1, "0101000000000000000000000000000000", "1"},
	{"Int(-1)", Int(-1), 0x685cd83ad34b3424, 18446744073709551615, "01ffffffffffffffff0000000000000000", "-1"},
	{"Int(42)", Int(42), 0xb960a184f07032c6, 42, "012a000000000000000000000000000000", "42"},
	{"Int(math.MinInt64)", Int(math.MinInt64), 0x5299acdc8ff45a2c, 9223372036854775808, "0100000000000000800000000000000000", "-9223372036854775808"},
	{"Int(math.MaxInt64)", Int(math.MaxInt64), 0x685d583ad34c0da4, 9223372036854775807, "01ffffffffffffff7f0000000000000000", "9223372036854775807"},
	{"Float(0)", Float(0), 0xcd92cf54dc615e5, 0, "0200000000000000000000000000000000", "0"},
	{"Float(math.Copysign(0, -1))", Float(math.Copysign(0, -1)), 0xcd92cf54dc615e5, 0, "0200000000000000000000000000000000", "0"},
	{"Float(1.5)", Float(1.5), 0xdcdddf54e95fb20, 4609434218613702656, "02000000000000f83f0000000000000000", "1.5"},
	{"Float(-2.25)", Float(-2.25), 0xce038f54dcc48f7, 13835621005235585024, "0200000000000002c00000000000000000", "-2.25"},
	{"Float(math.NaN())", Float(math.NaN()), 0xf04f8cec44e9cb91, 9221120237041090561, "02010000000000f87f0000000000000000", "NaN"},
	{"Float(math.Inf(1))", Float(math.Inf(1)), 0xde89df54eac5618, 9218868437227405312, "02000000000000f07f0000000000000000", "+Inf"},
	{"Float(math.Inf(-1))", Float(math.Inf(-1)), 0xde81df54eab7c98, 18442240474082181120, "02000000000000f0ff0000000000000000", "-Inf"},
	{"Float(math.SmallestNonzeroFloat64)", Float(math.SmallestNonzeroFloat64), 0xedde65ec42d6cbc4, 1, "0201000000000000000000000000000000", "5e-324"},
	{"Float(math.MaxFloat64)", Float(math.MaxFloat64), 0xaf5e30dfc54e656d, 9218868437227405311, "02ffffffffffffef7f0000000000000000", "1.7976931348623157e+308"},
	{`Str("")`, Str(""), 0x796ed797b92b1fd2, 0, "0300000000000000000000000000000000", `""`},
	{`Str("a")`, Str("a"), 0x827809cfa446dd29, 0, "030000000000000000010000000000000061", `"a"`},
	{`Str("hello")`, Str("hello"), 0xd04c6fb0030348fa, 0, "030000000000000000050000000000000068656c6c6f", `"hello"`},
	{`Str("héllo\x00\xff")`, Str("héllo\x00\xff"), 0x75b18652f5d27676, 0, "030000000000000000080000000000000068c3a96c6c6f00ff", `"héllo\x00\xff"`},
	{`Str(strings.Repeat("x", 1<<20))`, Str(strings.Repeat("x", 1<<20)), 0x286b06ecf32b1fd2, 0,
		"len=1048593 sha=0c917b15a5b96ed0d1b656743ce5363c891d0197fa84f55f00860ff83cc11225",
		"len=1048578 sha=358693a0511d9f58f23d2e3c6835be4bcfe3d5d95382503a96c28aa08adf8678"},
}

// digest is how the recorded vectors shorten a long key or literal.
func digest(b []byte, hexKey bool) string {
	if len(b) > 64 {
		return fmt.Sprintf("len=%d sha=%x", len(b), sha256.Sum256(b))
	}
	if hexKey {
		return fmt.Sprintf("%x", b)
	}
	return string(b)
}

func TestValueRecordedVectors(t *testing.T) {
	for _, x := range valueVectors {
		if got := x.v.Hash(); got != x.hash {
			t.Errorf("%s: Hash = %#x, recorded %#x", x.name, got, x.hash)
		}
		if got := x.v.Bits(); got != x.bits {
			t.Errorf("%s: Bits = %d, recorded %d", x.name, got, x.bits)
		}
		if got := digest(AppendKey(nil, x.v), true); got != x.key {
			t.Errorf("%s: AppendKey = %s, recorded %s", x.name, got, x.key)
		}
		if got := digest([]byte(x.v.String()), false); got != x.str {
			t.Errorf("%s: String = %s, recorded %s", x.name, got, x.str)
		}
	}
	const wantKey = "0101000000000000000000000000000000030000000000000000020000000000000061620200000000000004400000000000000000"
	if got := fmt.Sprintf("%x", KeyOf(Int(1), Str("ab"), Float(2.5))); got != wantKey {
		t.Errorf("KeyOf(1, \"ab\", 2.5) = %s, recorded %s", got, wantKey)
	}
}

// TestPatternForms checks each pattern form against a table recorded from
// the three-field Pattern, plus what it matches.
func TestPatternForms(t *testing.T) {
	cases := []struct {
		p         Pattern
		wild, leq bool
		str       string
		matches   []Value
		rejects   []Value
	}{
		{Pattern{}, false, false, "<invalid>", []Value{{}}, []Value{Int(0), Float(0), Str("")}},
		{Wildcard(), true, false, "*", []Value{Int(1), Float(1), Str(""), Str("x"), {}}, nil},
		{Const(Int(7)), false, false, "7", []Value{Int(7)}, []Value{Int(8), Float(7), Str("7"), {}}},
		{Const(Float(2.5)), false, false, "2.5", []Value{Float(2.5)}, []Value{Float(2), Int(2)}},
		{Const(Str("")), false, false, `""`, []Value{Str("")}, []Value{Str("x"), Int(0), {}}},
		{Const(Str("x")), false, false, `"x"`, []Value{Str("x"), Str(string([]byte("x")))}, []Value{Str(""), Str("xx"), Int(1)}},
		{Leq(Int(7)), false, true, "<=7", []Value{Int(7), Int(-9), Int(math.MinInt64)}, []Value{Int(8), Float(1), Str(""), {}}},
		{Leq(Int(-3)), false, true, "<=-3", []Value{Int(-3), Int(-4)}, []Value{Int(-2), Int(0)}},
		{Leq(Float(2.5)), false, true, "<=2.5", []Value{Float(2.5), Float(math.Inf(-1))}, []Value{Float(2.75), Float(math.NaN()), Int(1)}},
		{Leq(Float(math.Inf(1))), false, true, "<=+Inf", []Value{Float(math.MaxFloat64), Float(math.Inf(1))}, []Value{Float(math.NaN()), Int(0)}},
	}
	for _, c := range cases {
		if c.p.IsWildcard() != c.wild || c.p.IsLeq() != c.leq || c.p.String() != c.str {
			t.Errorf("%s: IsWildcard %v IsLeq %v, want %v %v %q", c.p, c.p.IsWildcard(), c.p.IsLeq(), c.wild, c.leq, c.str)
		}
		for _, v := range c.matches {
			if !c.p.MatchesValue(v) {
				t.Errorf("%s does not match %s", c.p, v)
			}
		}
		for _, v := range c.rejects {
			if c.p.MatchesValue(v) {
				t.Errorf("%s matches %s", c.p, v)
			}
		}
	}
	if v := Leq(Int(7)).Value(); v.Kind() != KindInt || v.AsInt() != 7 {
		t.Errorf("Leq(7).Value() = %s", v)
	}
	if v := Leq(Float(2.5)).Value(); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Leq(2.5).Value() = %s", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("Value of the wildcard must panic")
		}
	}()
	Wildcard().Value()
}

// FuzzValue builds two values from raw fuzz input and holds them to the
// reference model. The seeds are the gate (`scripts/check.sh fuzzseed`).
func FuzzValue(f *testing.F) {
	fixed := corpus()
	for i, r := range fixed {
		o := fixed[(i+1)%len(fixed)]
		if isHuge(r) || isHuge(o) {
			continue // the megabyte strings stay in TestValueAgainstReference
		}
		f.Add(uint8(r.kind), r.num, r.str, uint8(o.kind), o.num, o.str)
	}
	f.Add(uint8(KindString), uint64(0), "hello", uint8(KindString), uint64(0), "hello")
	f.Fuzz(func(t *testing.T, k1 uint8, n1 uint64, s1 string, k2 uint8, n2 uint64, s2 string) {
		build := func(k uint8, n uint64, s string) refValue {
			switch Kind(k % 4) {
			case KindInt:
				return refValue{kind: KindInt, num: n}
			case KindFloat:
				return refFloat(math.Float64frombits(n))
			case KindString:
				return refValue{kind: KindString, str: strings.Clone(s)} // its own array
			}
			return refValue{}
		}
		a, b := build(k1, n1, s1), build(k2, n2, s2)
		checkValue(t, a)
		checkValue(t, b)
		checkPair(t, a, b)
		checkPair(t, b, a)
		if a.kind == KindString && len(a.str) > 1 {
			sub := refValue{kind: KindString, str: a.str[:len(a.str)/2]}
			checkValue(t, sub)
			checkPair(t, a, sub) // one pointer, two lengths
		}
	})
}
