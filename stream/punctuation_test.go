package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// Punctuation reference test. A punctuation is stored as a shape and its
// constants; refPunct below is the representation it replaced — one
// pattern per column — with that representation's code, kept as the
// reference. Random schemas (int, float and string columns) and random
// punctuations over them (constants, <= bounds, wildcards, kinds that do
// not fit the column, NaN, ±Inf, −0, strings that need quoting) are held
// to it: Matches, Validate, ConstIndexes, Scheme.Instantiates, the String
// text and the codec's bytes. The choices come from a byte string, so
// the randomised test and the fuzz target share one checker.

// refPunct is a punctuation as one pattern per column.
type refPunct struct {
	Patterns []Pattern
}

func (p refPunct) Matches(t Tuple) bool {
	if len(p.Patterns) != len(t.Values) {
		return false
	}
	for i, pat := range p.Patterns {
		if !pat.MatchesValue(t.Values[i]) {
			return false
		}
	}
	return true
}

func (p refPunct) ConstIndexes() []int {
	var out []int
	for i, pat := range p.Patterns {
		if !pat.IsWildcard() {
			out = append(out, i)
		}
	}
	return out
}

func (p refPunct) Validate(s *Schema) error {
	if len(p.Patterns) != s.Arity() {
		return fmt.Errorf("stream: punctuation arity %d does not match schema %s", len(p.Patterns), s)
	}
	for i, pat := range p.Patterns {
		if pat.IsWildcard() {
			continue
		}
		if pat.Value().Kind() != s.Attr(i).Kind {
			return fmt.Errorf("stream: punctuation pattern %d expects %s, has %s",
				i, s.Attr(i).Kind, pat.Value().Kind())
		}
		if pat.IsLeq() && s.Attr(i).Kind != KindInt && s.Attr(i).Kind != KindFloat {
			return fmt.Errorf("stream: ordered pattern on non-numeric attribute %q", s.Attr(i).Name)
		}
	}
	return nil
}

func (p refPunct) AppendTo(dst []byte) []byte {
	dst = append(dst, '(')
	for i, pat := range p.Patterns {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		switch {
		case pat.IsWildcard():
			dst = append(dst, '*')
		case pat.IsLeq():
			dst = pat.Value().appendTo(append(dst, "<="...))
		default:
			dst = pat.v.appendTo(dst)
		}
	}
	return append(dst, ')')
}

// refInstantiates is Scheme.Instantiates over the dense form.
func refInstantiates(s Scheme, p refPunct) bool {
	if len(p.Patterns) != len(s.Punctuatable) {
		return false
	}
	oi := s.OrderedIndex()
	for i, pat := range p.Patterns {
		if pat.IsWildcard() == s.Punctuatable[i] {
			return false
		}
		if !pat.IsWildcard() && pat.IsLeq() != (i == oi) {
			return false
		}
	}
	return true
}

// refEncode is Codec.Encode of a valid dense punctuation.
func refEncode(p refPunct) []byte {
	dst := []byte{codecPunct}
	for _, pat := range p.Patterns {
		switch {
		case pat.IsWildcard():
			dst = append(dst, slotWildcard)
		case pat.IsLeq():
			dst = append(dst, slotLeq)
			dst = appendValue(dst, pat.Value())
		default:
			dst = append(dst, slotConst)
			dst = appendValue(dst, pat.Value())
		}
	}
	return dst
}

// punctOf builds a punctuation straight from dense patterns, all-wildcard
// ones included, which no constructor accepts.
func punctOf(pats []Pattern) Punctuation {
	p := Punctuation{shape: &shape{arity: len(pats)}}
	for i, pat := range pats {
		if !pat.IsWildcard() {
			p.shape.idx = append(p.shape.idx, i)
			p.consts = append(p.consts, pat)
		}
	}
	return p
}

// chooser draws choices from a byte string; past its end every choice
// is 0.
type chooser struct{ b []byte }

func (c *chooser) next(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

var punctPalette = map[Kind][]Value{
	KindInt:    {Int(0), Int(-1), Int(7), Int(math.MaxInt64), Int(math.MinInt64)},
	KindFloat:  {Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(2.5)},
	KindString: {Str(""), Str("a"), Str("q\"uo\\te"), Str("\xff\xfe"), Str("日本"), Str("a\nb")},
}

func (c *chooser) value(k Kind) Value {
	vs := punctPalette[k]
	return vs[c.next(len(vs))]
}

func (c *chooser) kind() Kind { return Kind(1 + c.next(3)) }

func checkPunctuation(t *testing.T, b []byte) {
	t.Helper()
	c := &chooser{b: b}
	arity := 1 + c.next(5)
	attrs := make([]Attribute, arity)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i), Kind: c.kind()}
	}
	sc := MustSchema("s", attrs...)
	pats := make([]Pattern, arity)
	for i := range pats {
		switch c.next(6) {
		case 0, 1:
			pats[i] = Wildcard()
		case 2, 3:
			pats[i] = Const(c.value(attrs[i].Kind))
		case 4: // a bound; Leq of a string is the zero Pattern
			pats[i] = Leq(c.value(attrs[i].Kind))
		default: // a constant of any kind, often not the column's
			pats[i] = Const(c.value(c.kind()))
		}
	}
	ref := refPunct{Patterns: slices.Clone(pats)}
	p, err := NewPunctuation(pats...)
	if ref.ConstIndexes() == nil {
		if err == nil || err.Error() != "stream: punctuation must constrain at least one attribute" {
			t.Fatalf("NewPunctuation of %s: err %v", ref.AppendTo(nil), err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := range pats {
		pats[i] = Const(Int(12345)) // the punctuation holds a copy
	}
	want := string(ref.AppendTo(nil))
	if got := p.String(); got != want {
		t.Fatalf("String = %s, reference %s", got, want)
	}
	if got := p.AppendTo([]byte("x")); string(got) != "x"+want {
		t.Fatalf("AppendTo = %s, reference x%s", got, want)
	}
	if p.Arity() != arity || !slices.Equal(p.ConstIndexes(), ref.ConstIndexes()) {
		t.Fatalf("%s: arity %d, ConstIndexes %v; reference %d, %v", want, p.Arity(), p.ConstIndexes(), arity, ref.ConstIndexes())
	}
	for i, pat := range ref.Patterns {
		if got := p.Pattern(i); got.String() != pat.String() || got.IsLeq() != pat.IsLeq() || got.IsWildcard() != pat.IsWildcard() {
			t.Fatalf("%s: Pattern(%d) = %s, reference %s", want, i, got, pat)
		}
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	valid := ref.Validate(sc)
	if got := p.Validate(sc); errText(got) != errText(valid) {
		t.Fatalf("%s: Validate = %v, reference %v", want, got, valid)
	}
	other := MustSchema("o", Attribute{Name: "x", Kind: KindInt})
	if got, w := p.Validate(other), ref.Validate(other); errText(got) != errText(w) {
		t.Fatalf("%s: Validate on another arity = %v, reference %v", want, got, w)
	}

	// Matches, over tuples built mostly from the punctuation's own
	// constants, so that some match.
	for n := 0; n < 6; n++ {
		width := arity
		if c.next(8) == 0 {
			width = 1 + c.next(5)
		}
		vals := make([]Value, width)
		for i := range vals {
			switch {
			case i < arity && !ref.Patterns[i].IsWildcard() && c.next(3) > 0:
				vals[i] = ref.Patterns[i].Value()
			case i < arity && c.next(6) > 0:
				vals[i] = c.value(attrs[i].Kind)
			default:
				vals[i] = c.value(c.kind())
			}
		}
		tu := NewTuple(vals...)
		if got, w := p.Matches(tu), ref.Matches(tu); got != w {
			t.Fatalf("%s: Matches%s = %v, reference %v", want, tu, got, w)
		}
	}

	// Instantiates, for the scheme of the punctuation's own positions and
	// for random ones.
	for n := 0; n < 4; n++ {
		mask := make([]bool, arity)
		ordered := make([]bool, arity)
		var punctuatable []int
		for i := range mask {
			if n == 0 {
				mask[i] = !ref.Patterns[i].IsWildcard()
			} else {
				mask[i] = c.next(2) == 0
			}
			if mask[i] {
				punctuatable = append(punctuatable, i)
			}
		}
		if len(punctuatable) == 0 {
			continue
		}
		if c.next(2) == 0 {
			ordered[punctuatable[c.next(len(punctuatable))]] = true
		}
		s := MustOrderedScheme("s", mask, ordered)
		if got, w := s.Instantiates(p), refInstantiates(s, ref); got != w {
			t.Fatalf("%s Instantiates %s = %v, reference %v", s, want, got, w)
		}
		// Instantiate builds what the dense form did.
		consts := make([]Value, len(punctuatable))
		densePats := make([]Pattern, arity)
		for i := range densePats {
			densePats[i] = Wildcard()
		}
		for k, i := range punctuatable {
			consts[k] = c.value(attrs[i].Kind)
			if ordered[i] {
				densePats[i] = Leq(consts[k])
			} else {
				densePats[i] = Const(consts[k])
			}
		}
		inst, err := s.Instantiate(consts...)
		if err != nil {
			t.Fatal(err)
		}
		if got, w := inst.String(), string(refPunct{densePats}.AppendTo(nil)); got != w {
			t.Fatalf("%s.Instantiate = %s, reference %s", s, got, w)
		}
		if got, w := s.Instantiates(inst), refInstantiates(s, refPunct{densePats}); got != w {
			t.Fatalf("%s Instantiates its own %s = %v, reference %v", s, inst, got, w)
		}
	}

	// Codec: the same bytes as the dense encoder; decoding them and
	// encoding again changes nothing.
	codec := NewCodec(sc)
	wire, err := codec.Encode(nil, PunctElement(p))
	if errText(err) != errText(valid) {
		t.Fatalf("%s: Encode error %v, reference Validate %v", want, err, valid)
	}
	if valid == nil {
		if w := refEncode(ref); !bytes.Equal(wire, w) {
			t.Fatalf("%s: Encode = %x, reference %x", want, wire, w)
		}
		back, rest, err := codec.Decode(wire)
		if err != nil || len(rest) != 0 || !back.IsPunct() {
			t.Fatalf("%s: Decode: %v, %d bytes left", want, err, len(rest))
		}
		again, err := codec.Encode(nil, back)
		if err != nil || !bytes.Equal(again, wire) || back.Punct().String() != want ||
			!slices.Equal(back.Punct().ConstIndexes(), ref.ConstIndexes()) {
			t.Fatalf("%s: decoded as %s, re-encoded %x (%v)", want, back, again, err)
		}
	}

	// Reshape: the output punctuation of an operator whose output puts
	// this input's columns at base, as the dense copy of an all-wildcard
	// template with the constants written in.
	width := arity + c.next(4)
	base := c.next(width - arity + 1)
	tmpl := make([]Pattern, width)
	mask := make([]bool, width)
	for i := range tmpl {
		tmpl[i] = Wildcard()
	}
	for _, i := range ref.ConstIndexes() {
		tmpl[base+i] = ref.Patterns[i]
		mask[base+i] = true
	}
	outScheme := MustScheme("out", mask...)
	out, dense := p.Reshape(outScheme), refPunct{tmpl}
	if out.String() != string(dense.AppendTo(nil)) || !slices.Equal(out.ConstIndexes(), dense.ConstIndexes()) || out.Arity() != width {
		t.Fatalf("%s reshaped onto %s: %s, reference %s", want, outScheme, out, dense.AppendTo(nil))
	}
	if p.String() != want {
		t.Fatalf("reshaping changed the punctuation to %s", p)
	}
}

func TestPunctuationAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		b := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(b)
		checkPunctuation(t, b)
	}
}

// punctuationSeeds are hand-written byte strings: a one-column constant,
// a float schema with NaN and a <= bound, a string schema with a quoted
// constant and a string "bound", and an all-wildcard punctuation.
var punctuationSeeds = [][]byte{
	{0, 0, 2, 0},
	{2, 1, 1, 1, 2, 2, 4, 3},
	{3, 2, 2, 2, 2, 4, 1, 3, 2, 2, 5, 0, 3},
	{1, 0, 0, 0, 1},
}

func FuzzPunctuation(f *testing.F) {
	for _, s := range punctuationSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkPunctuation(t, b)
	})
}

// decodeAllocsPuncts have four shapes, two of one size.
var decodeAllocsPuncts = []Punctuation{
	MustPunctuation(Wildcard(), Const(Int(7)), Wildcard(), Wildcard()),
	MustPunctuation(Const(Int(7)), Wildcard(), Wildcard(), Wildcard()),
	MustPunctuation(Leq(Int(3)), Wildcard(), Const(Int(-1)), Wildcard()),
	MustPunctuation(Const(Int(1)), Const(Int(2)), Const(Int(3)), Leq(Int(4))),
}

// TestDecodePunctAllocs: decoding a punctuation with k constants makes
// one allocation of 16·k bytes, its constants; its shape is the codec's
// own, shared with every punctuation of the same positions.
func TestDecodePunctAllocs(t *testing.T) {
	attr := func(n string) Attribute { return Attribute{Name: n, Kind: KindInt} }
	c := NewCodec(MustSchema("s", attr("a"), attr("b"), attr("c"), attr("d")))
	for _, p := range decodeAllocsPuncts {
		wire, err := c.Encode(nil, PunctElement(p))
		if err != nil {
			t.Fatal(err)
		}
		var got Element
		decode := func() {
			if got, _, err = c.Decode(wire); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		first := got.Punct().shape
		if allocs := testing.AllocsPerRun(200, decode); allocs != 1 {
			t.Errorf("decoding %s allocates %v times, want 1", p, allocs)
		}
		if got.Punct().shape != first || got.Punct().String() != p.String() {
			t.Errorf("decoded %s as %s, shape shared %v", p, got, got.Punct().shape == first)
		}
		if k := len(p.ConstIndexes()); cap(got.Punct().consts) != k {
			t.Errorf("decoding %s keeps %d constants' room, want %d (16·%d bytes)", p, cap(got.Punct().consts), k, k)
		}
	}
}

// TestCodecConcurrentDecode decodes punctuations of several shapes through
// one codec from several goroutines at once, as a server's shared output
// codec is used: each gets its own shape back, however the goroutines race
// to intern them.
func TestCodecConcurrentDecode(t *testing.T) {
	attr := func(n string) Attribute { return Attribute{Name: n, Kind: KindInt} }
	sc := MustSchema("s", attr("a"), attr("b"), attr("c"), attr("d"))
	var wires [][]byte
	for _, p := range decodeAllocsPuncts {
		w, err := NewCodec(sc).Encode(nil, PunctElement(p))
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, w)
	}
	c := NewCodec(sc)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(wires)
				got, _, err := c.Decode(wires[i])
				if err != nil || got.Punct().String() != decodeAllocsPuncts[i].String() {
					t.Errorf("goroutine %d decoded %s as %s (%v)", g, decodeAllocsPuncts[i], got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
