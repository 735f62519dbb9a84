package stream

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func codecSchema() *Schema {
	return MustSchema("mix",
		Attribute{Name: "a", Kind: KindInt},
		Attribute{Name: "b", Kind: KindFloat},
		Attribute{Name: "c", Kind: KindString})
}

func TestCodecTupleRoundTrip(t *testing.T) {
	c := NewCodec(codecSchema())
	orig := TupleElement(NewTuple(Int(-42), Float(3.75), Str("héllo\x00world")))
	buf, err := c.Encode(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("unconsumed bytes: %d", len(rest))
	}
	if got.IsPunct() {
		t.Fatal("kind flipped")
	}
	for i, v := range got.Tuple().Values {
		if !v.Equal(orig.Tuple().Values[i]) {
			t.Fatalf("value %d = %s, want %s", i, v, orig.Tuple().Values[i])
		}
	}
}

func TestCodecPunctRoundTrip(t *testing.T) {
	c := NewCodec(codecSchema())
	orig := PunctElement(MustPunctuation(Const(Int(7)), Wildcard(), Const(Str("x"))))
	buf, err := c.Encode(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := c.Decode(buf)
	if err != nil || len(rest) != 0 {
		t.Fatal(err, len(rest))
	}
	p := got.Punct()
	if !p.Pattern(0).Value().Equal(Int(7)) || !p.Pattern(1).IsWildcard() ||
		!p.Pattern(2).Value().Equal(Str("x")) {
		t.Fatalf("punct = %s", p)
	}
}

func TestCodecStreamOfElements(t *testing.T) {
	c := NewCodec(codecSchema())
	var buf []byte
	var want []Element
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var e Element
		if rng.Intn(3) == 0 {
			e = PunctElement(MustPunctuation(Const(Int(rng.Int63())), Wildcard(), Wildcard()))
		} else {
			e = TupleElement(NewTuple(Int(rng.Int63()), Float(rng.NormFloat64()), Str("s")))
		}
		var err error
		buf, err = c.Encode(buf, e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	for i := 0; len(buf) > 0; i++ {
		got, rest, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("element %d: %v", i, err)
		}
		if got.String() != want[i].String() {
			t.Fatalf("element %d = %s, want %s", i, got, want[i])
		}
		buf = rest
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	c := NewCodec(codecSchema())
	err := quick.Check(func(a int64, b float64, s string, punct bool, wild uint8) bool {
		var e Element
		if punct {
			pats := []Pattern{Const(Int(a)), Const(Float(b)), Const(Str(s))}
			anyConst := false
			for i := 0; i < 3; i++ {
				if wild&(1<<uint(i)) != 0 {
					pats[i] = Wildcard()
				} else {
					anyConst = true
				}
			}
			if !anyConst {
				return true // all-wildcard punctuations are invalid by design
			}
			p, err := NewPunctuation(pats...)
			if err != nil {
				return false
			}
			e = PunctElement(p)
		} else {
			e = TupleElement(NewTuple(Int(a), Float(b), Str(s)))
		}
		buf, err := c.Encode(nil, e)
		if err != nil {
			return false
		}
		got, rest, err := c.Decode(buf)
		return err == nil && len(rest) == 0 && got.String() == e.String()
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCodecErrors(t *testing.T) {
	c := NewCodec(codecSchema())
	// Wrong arity rejected at encode time.
	if _, err := c.Encode(nil, TupleElement(NewTuple(Int(1)))); err == nil {
		t.Error("arity mismatch must fail")
	}
	// Truncated payloads rejected at decode time.
	good, err := c.Encode(nil, TupleElement(NewTuple(Int(1), Float(2), Str("abc"))))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := c.Decode(good[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	// Bad element kind.
	if _, _, err := c.Decode([]byte{0xFF}); err == nil {
		t.Error("bad kind must fail")
	}
	// Bad pattern slot.
	if _, _, err := c.Decode([]byte{1, 0xEE}); err == nil {
		t.Error("bad slot must fail")
	}
	// An ordered slot on the string attribute: a pattern with no
	// representation, refused before a value is built from it.
	if _, _, err := c.Decode([]byte{1, 0, 0, 2, 1, 'x'}); err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Errorf("\"<=\" on a string attribute: got %v, want a non-numeric error", err)
	}
	// A float NaN round-trips structurally (bit pattern preserved).
	nan, err := c.Encode(nil, TupleElement(NewTuple(Int(0), Float(mathNaN()), Str(""))))
	if err != nil {
		t.Fatal(err)
	}
	if _, rest, err := c.Decode(nan); err != nil || len(rest) != 0 {
		t.Fatal("NaN must decode")
	}
}

func mathNaN() float64 {
	z := 0.0
	return z / z
}

// FuzzCodec parses arbitrary bytes as one element of an int, float and
// string schema, with Decode, with DecodeInto into one buffer that
// starts out holding values of the wrong kinds and is reused across
// inputs, and with DecodeLent into one DecodeBuffers reused across inputs.
// The three must agree on accepting, on the element and on the
// remainder; DecodeInto must decode a tuple into the buffer and leave it
// alone for a punctuation; and an accepted tuple must re-encode to the
// bytes it consumed. The seeds are the gate (`scripts/check.sh fuzzseed`).
func FuzzCodec(f *testing.F) {
	c := NewCodec(codecSchema())
	for _, e := range []Element{
		TupleElement(NewTuple(Int(-42), Float(3.75), Str("héllo\x00world"))),
		TupleElement(NewTuple(Int(0), Float(mathNaN()), Str(""))),
		TupleElement(NewTuple(Int(1), Float(2), Str(strings.Repeat("x", 200)))),
		PunctElement(MustPunctuation(Const(Int(7)), Wildcard(), Const(Str("x")))),
		PunctElement(MustPunctuation(Wildcard(), Leq(Float(-1.5)), Wildcard())),
	} {
		b, err := c.Encode(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(append(slices.Clone(b), b...))
		f.Add(b[:len(b)-1])
	}
	negZero := []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0}
	padded := []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x81, 0, 'x'}
	for _, b := range [][]byte{nil, {0xFF}, {1, 0xEE}, {1, 0, 0, 2, 1, 'x'}, negZero, padded} {
		f.Add(b)
	}
	junk := Str("junk")
	buf := []Value{junk, Int(-1), Float(-1), junk}
	var lent DecodeBuffers
	f.Fuzz(func(t *testing.T, src []byte) {
		want, wantRest, wantErr := c.Decode(src)
		gotL, restL, errL := c.DecodeLent(&lent, src)
		if (errL == nil) != (wantErr == nil) {
			t.Fatalf("Decode: %v, DecodeLent: %v", wantErr, errL)
		}
		if errL == nil && (gotL.String() != want.String() || !bytes.Equal(restL, wantRest)) {
			t.Fatalf("DecodeLent read %s leaving %x, Decode %s leaving %x", gotL, restL, want, wantRest)
		}
		before := slices.Clone(buf[:cap(buf)])
		got, vals, rest, err := c.DecodeInto(buf, src)
		if &vals[:cap(vals)][0] != &buf[:cap(buf)][0] {
			t.Fatalf("DecodeInto grew a buffer of capacity %d for arity 3", cap(buf))
		}
		buf = vals
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Decode: %v, DecodeInto: %v", wantErr, err)
		}
		if err != nil {
			return
		}
		if got.String() != want.String() || !bytes.Equal(rest, wantRest) {
			t.Fatalf("DecodeInto read %s leaving %x, Decode %s leaving %x", got, rest, want, wantRest)
		}
		if got.IsPunct() {
			if !slices.EqualFunc(buf[:cap(buf)], before, func(a, b Value) bool { return a.p == b.p && a.n == b.n }) {
				t.Fatalf("decoding %s wrote into the buffer", got)
			}
			return
		}
		if &got.Tuple().Values[0] != &buf[0] {
			t.Fatalf("DecodeInto decoded %s outside the buffer", got)
		}
		consumed := slices.Clone(src[:len(src)-len(rest)])
		// Float reads a negative zero as zero; the float is the second
		// attribute, after the kind byte and an 8-byte int.
		if binary.LittleEndian.Uint64(consumed[9:]) == 1<<63 {
			binary.LittleEndian.PutUint64(consumed[9:], 0)
		}
		re, err := c.Encode(nil, got)
		if err != nil || !bytes.Equal(re, consumed) {
			t.Fatalf("%s re-encodes to %x (%v), consumed %x", got, re, err, consumed)
		}
	})
}
