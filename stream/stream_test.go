package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueRoundTrip(t *testing.T) {
	cases := []Value{Int(0), Int(-5), Int(1 << 40), Float(3.25), Float(-0.5), Str(""), Str("héllo")}
	for _, v := range cases {
		if !v.Equal(v.Key().Value()) {
			t.Errorf("Key/Value round trip broke %s", v)
		}
	}
	if Int(1).Equal(Float(1)) {
		t.Error("int and float must not compare equal")
	}
	if !Float(0).Equal(Float(math.Copysign(0, -1))) {
		t.Error("negative zero should normalize to zero")
	}
}

func TestValueAccessorsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { Int(1).AsFloat() },
		func() { Float(1).AsString() },
		func() { Str("x").AsInt() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on wrong-kind accessor")
				}
			}()
			fn()
		}()
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"42":     Int(42),
		"-1":     Int(-1),
		"3.5":    Float(3.5),
		`"hi"`:   Str("hi"),
		"1e+100": Float(1e100),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

// TestPunctuationAppendTo holds AppendTo to the text String rendered
// before it existed — "(", the patterns' String forms joined by ", ",
// ")" — for every pattern form over every value kind, including the
// floats and strings whose formatting has special cases. The text is the
// partitioned alignment gate's key and lands in PTP2 snapshots, so it
// must not move.
func TestPunctuationAppendTo(t *testing.T) {
	values := []Value{
		Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(2.5), Float(1e100), Float(5e-324), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.Copysign(0, -1)),
		Str(""), Str("hi"), Str("a\"b\\c\n\t\x00"), Str("héllo 日本"), Str("\xff\xfe"), Str(" "),
		{},
	}
	var pats []Pattern
	for _, v := range values {
		pats = append(pats, Const(v))
		if k := v.Kind(); k == KindInt || k == KindFloat {
			pats = append(pats, Leq(v))
		}
	}
	pats = append(pats, Wildcard(), Pattern{})
	old := func(ps []Pattern) string {
		s := "("
		for i, p := range ps {
			if i > 0 {
				s += ", "
			}
			s += p.String()
		}
		return s + ")"
	}
	buf := []byte("prefix")
	for i, p := range pats {
		for _, ps := range [][]Pattern{{p}, {Wildcard(), p}, {p, pats[(i+1)%len(pats)], Wildcard(), p}} {
			pu := punctOf(ps)
			want := old(ps)
			buf = pu.AppendTo(buf[:len("prefix")])
			if got := string(buf); got != "prefix"+want {
				t.Errorf("AppendTo = %q, want %q", got, "prefix"+want)
			}
			if got := pu.String(); got != want {
				t.Errorf("String = %q, want %q", got, want)
			}
		}
	}
	for want, p := range map[string]Pattern{
		"NaN": Const(Float(math.NaN())), "<=+Inf": Leq(Float(math.Inf(1))), "-Inf": Const(Float(math.Inf(-1))),
		"0": Const(Float(math.Copysign(0, -1))), `"a\"b\\c\n\t\x00"`: Const(Str("a\"b\\c\n\t\x00")),
		`"\xff\xfe"`: Const(Str("\xff\xfe")), "<=-9223372036854775808": Leq(Int(math.MinInt64)),
	} {
		if got := string(punctOf([]Pattern{p}).AppendTo(nil)); got != "("+want+")" {
			t.Errorf("AppendTo = %s, want (%s)", got, want)
		}
	}
	pu := MustPunctuation(Wildcard(), Const(Int(123456)), Leq(Float(2.5)), Const(Str("item")))
	if allocs := testing.AllocsPerRun(100, func() { buf = pu.AppendTo(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendTo into a reused buffer allocates %v times", allocs)
	}
}

func TestKeyOfInjective(t *testing.T) {
	// Adjacent values whose naive concatenation would collide.
	a := KeyOf(Str("ab"), Str("c"))
	b := KeyOf(Str("a"), Str("bc"))
	if a == b {
		t.Error("KeyOf must be injective across boundaries")
	}
	if KeyOf(Int(1), Int(2)) == KeyOf(Int(2), Int(1)) {
		t.Error("KeyOf must respect order")
	}
	err := quick.Check(func(x, y int64, s1, s2 string) bool {
		k1 := KeyOf(Int(x), Str(s1))
		k2 := KeyOf(Int(y), Str(s2))
		same := x == y && s1 == s2
		return (k1 == k2) == same
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := NewSchema("S"); err == nil {
		t.Error("no attributes must fail")
	}
	if _, err := NewSchema("S", Attribute{Name: "a", Kind: KindInt}, Attribute{Name: "a", Kind: KindInt}); err == nil {
		t.Error("duplicate attribute must fail")
	}
	if _, err := NewSchema("S", Attribute{Name: "a"}); err == nil {
		t.Error("invalid kind must fail")
	}
	s := MustSchema("S", Attribute{Name: "a", Kind: KindInt}, Attribute{Name: "b", Kind: KindString})
	if s.Index("b") != 1 || s.Index("z") != -1 {
		t.Error("Index lookup broken")
	}
	if s.String() != "S(a:int, b:string)" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestTupleValidate(t *testing.T) {
	s := MustSchema("S", Attribute{Name: "a", Kind: KindInt}, Attribute{Name: "b", Kind: KindString})
	if err := NewTuple(Int(1), Str("x")).Validate(s); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	if err := NewTuple(Int(1)).Validate(s); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := NewTuple(Str("x"), Str("y")).Validate(s); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestPunctuationMatches(t *testing.T) {
	// The paper's (*, 1, *) example.
	p := MustPunctuation(Wildcard(), Const(Int(1)), Wildcard())
	if !p.Matches(NewTuple(Int(9), Int(1), Int(7))) {
		t.Error("should match itemid=1")
	}
	if p.Matches(NewTuple(Int(9), Int(2), Int(7))) {
		t.Error("should not match itemid=2")
	}
	if p.Matches(NewTuple(Int(1), Int(1))) {
		t.Error("arity mismatch should not match")
	}
	if got := p.String(); got != "(*, 1, *)" {
		t.Errorf("String() = %q", got)
	}
	if _, err := NewPunctuation(Wildcard(), Wildcard()); err == nil {
		t.Error("all-wildcard punctuation must be rejected")
	}
	if _, err := NewPunctuation(); err == nil {
		t.Error("empty punctuation must be rejected")
	}
	if got := p.ConstIndexes(); len(got) != 1 || got[0] != 1 {
		t.Errorf("ConstIndexes = %v", got)
	}
}

func TestPunctuationValidate(t *testing.T) {
	s := MustSchema("S", Attribute{Name: "a", Kind: KindInt}, Attribute{Name: "b", Kind: KindString})
	if err := MustPunctuation(Const(Int(1)), Wildcard()).Validate(s); err != nil {
		t.Errorf("valid punctuation rejected: %v", err)
	}
	if err := MustPunctuation(Const(Str("x")), Wildcard()).Validate(s); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := MustPunctuation(Const(Int(1))).Validate(s); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestSchemeParseAndInstantiate(t *testing.T) {
	s := MustScheme("bid", false, true, false)
	if s.Arity() != 3 {
		t.Fatalf("scheme %s wrong", s)
	}
	if s.String() != "bid(_, +, _)" {
		t.Errorf("String() = %q", s.String())
	}
	p, err := s.Instantiate(Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "(*, 1, *)" {
		t.Errorf("instantiation = %s", p)
	}
	if !s.Instantiates(p) {
		t.Error("scheme must recognize its own instantiation")
	}
	// A punctuation with extra constants is NOT an instantiation.
	p2 := MustPunctuation(Const(Int(9)), Const(Int(1)), Wildcard())
	if s.Instantiates(p2) {
		t.Error("over-constrained punctuation is not an instantiation")
	}
	if _, err := s.Instantiate(Int(1), Int(2)); err == nil {
		t.Error("wrong constant count must fail")
	}
	if _, err := NewScheme("s", false, false, false); err == nil {
		t.Error("all-wildcard scheme must fail")
	}
	if _, err := NewScheme("", true); err == nil {
		t.Error("empty stream name must fail")
	}
}

func TestSchemeSet(t *testing.T) {
	set := NewSchemeSet()
	a := MustScheme("S", true, false)
	b := MustScheme("S", false, true)
	if !set.Add(a) || set.Add(a) {
		t.Error("Add dedup broken")
	}
	set.Add(b)
	set.Add(MustScheme("T", true))
	if set.Len() != 3 {
		t.Errorf("Len = %d", set.Len())
	}
	if got := len(set.ForStream("S")); got != 2 {
		t.Errorf("ForStream(S) = %d schemes", got)
	}
	clone := set.Clone()
	clone.Add(MustScheme("U", true))
	if set.Len() != 3 || clone.Len() != 4 {
		t.Error("Clone must be independent")
	}
	if got := set.String(); got != "{S(+, _), S(_, +), T(+)}" {
		t.Errorf("String() = %q", got)
	}
}

func TestElement(t *testing.T) {
	te := TupleElement(NewTuple(Int(1)))
	pe := PunctElement(MustPunctuation(Const(Int(1))))
	if te.IsPunct() || !pe.IsPunct() {
		t.Error("tags broken")
	}
	func() {
		defer func() { recover() }()
		te.Punct()
		t.Error("Punct() on tuple element must panic")
	}()
	func() {
		defer func() { recover() }()
		pe.Tuple()
		t.Error("Tuple() on punct element must panic")
	}()
}
