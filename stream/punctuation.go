package stream

import (
	"errors"
	"fmt"
	"slices"
)

// Pattern is one attribute slot of a punctuation: the wildcard "*" (no
// constraint on future values of that attribute), a constant equal-value
// constraint, or an ordered "<=" bound (an extension of the paper's
// model in the spirit of heartbeats [11] and modern watermarks: the
// promise that no future tuple carries a value at or below the bound).
//
// A Pattern is one Value, 16 bytes: a constant is the value itself, and
// the other forms use three more tag addresses in the pointer word —
// wildcard, "<=" int bound, "<=" float bound — with the bound in the
// numeric word. Like a Value it is compared with its methods, never ==.
// The zero Pattern is the constant of the invalid value, which Validate
// refuses on every schema.
type Pattern struct {
	v Value
}

// Wildcard is the "*" pattern.
func Wildcard() Pattern { return Pattern{Value{p: tag(tagWild)}} }

// Const returns an equal-value constant pattern.
func Const(v Value) Pattern { return Pattern{v} }

// Leq returns an ordered bound pattern: it matches every value <= v.
// Only int and float values are ordered. A bound of any other kind has no
// representation: Leq returns the zero Pattern for it, which Validate
// refuses, so a caller that skips the kind check gets an error later
// rather than a pattern that matches the wrong values.
func Leq(v Value) Pattern {
	switch v.p {
	case tag(tagInt):
		return Pattern{Value{p: tag(tagLeqInt), n: v.n}}
	case tag(tagFloat):
		return Pattern{Value{p: tag(tagLeqFloat), n: v.n}}
	}
	return Pattern{}
}

// IsWildcard reports whether the pattern is "*".
func (p Pattern) IsWildcard() bool { return p.v.p == tag(tagWild) }

// IsLeq reports whether the pattern is an ordered bound.
func (p Pattern) IsLeq() bool {
	return p.v.p == tag(tagLeqInt) || p.v.p == tag(tagLeqFloat)
}

// Value returns the constant (or bound) of a non-wildcard pattern; it
// panics on "*".
func (p Pattern) Value() Value {
	switch p.v.p {
	case tag(tagWild):
		panic("stream: Value of wildcard pattern")
	case tag(tagLeqInt):
		return Value{p: tag(tagInt), n: p.v.n}
	case tag(tagLeqFloat):
		return Value{p: tag(tagFloat), n: p.v.n}
	}
	return p.v
}

// MatchesValue reports whether a single attribute value satisfies the
// pattern: wildcards match everything, constants match by equality, and
// ordered bounds match every value at or below the bound.
func (p Pattern) MatchesValue(v Value) bool {
	if p.IsWildcard() {
		return true
	}
	if p.IsLeq() {
		le, ok := LessEq(v, p.Value())
		return ok && le
	}
	return p.v.Equal(v)
}

// String renders "*", the constant literal, or "<=bound".
func (p Pattern) String() string {
	if p.IsWildcard() {
		return "*"
	}
	if p.IsLeq() {
		return "<=" + p.Value().String()
	}
	return p.v.String()
}

// Punctuation is a promise that no future tuple of its stream matches all
// of its non-wildcard patterns (§2.3: an instantiation of a scheme). It is
// a shape — arity and constrained positions — and the patterns at those
// positions, in order; every other position is a wildcard. Constructors
// reject a punctuation of wildcards only, which would assert the end of
// the stream. Both parts are immutable and unexported, so punctuations
// share them: a scheme's instantiations its shape, a re-shaped
// punctuation the constants (Reshape). The zero Punctuation constrains
// nothing and is no punctuation element: PunctElement of it is the zero
// Element.
type Punctuation struct {
	shape  *shape
	consts []Pattern
}

// shape is the layout of a punctuation: its arity and the positions of its
// constants, ascending.
type shape struct {
	arity int
	idx   []int
}

var errNoConstraint = errors.New("stream: punctuation must constrain at least one attribute")

// NewPunctuation builds the punctuation with the given pattern at each
// position. It copies what it keeps, so the caller may reuse patterns.
func NewPunctuation(patterns ...Pattern) (Punctuation, error) {
	var posBuf [8]int
	var constBuf [8]Pattern
	pos, consts := posBuf[:0], constBuf[:0]
	for i, p := range patterns {
		if !p.IsWildcard() {
			pos, consts = append(pos, i), append(consts, p)
		}
	}
	if len(consts) == 0 {
		return Punctuation{}, errNoConstraint
	}
	return Punctuation{shape: &shape{arity: len(patterns), idx: slices.Clone(pos)}, consts: slices.Clone(consts)}, nil
}

// MustPunctuation is NewPunctuation that panics on error.
func MustPunctuation(patterns ...Pattern) Punctuation {
	p, err := NewPunctuation(patterns...)
	if err != nil {
		panic(err)
	}
	return p
}

// Arity returns the number of attribute slots.
func (p Punctuation) Arity() int {
	if p.shape == nil {
		return 0
	}
	return p.shape.arity
}

// ConstIndexes returns the positions of the non-wildcard patterns, in
// ascending order. The slice is the shape's own, shared by every
// punctuation of the shape: callers must not modify it.
func (p Punctuation) ConstIndexes() []int {
	if p.shape == nil {
		return nil
	}
	return p.shape.idx
}

// Constant returns the k-th non-wildcard pattern, the one at position
// ConstIndexes()[k].
func (p Punctuation) Constant(k int) Pattern { return p.consts[k] }

// Pattern returns the pattern at position i: a constant, or "*".
func (p Punctuation) Pattern(i int) Pattern {
	if i < 0 || i >= p.Arity() {
		panic(fmt.Sprintf("stream: pattern %d of a punctuation of arity %d", i, p.Arity()))
	}
	for k, at := range p.shape.idx {
		if at == i {
			return p.consts[k]
		}
		if at > i {
			break
		}
	}
	return Wildcard()
}

// Reshape returns the instantiation of s that carries p's constants, in
// order: a join's output punctuation is its stored input punctuation
// re-shaped onto an output scheme. The constants are shared, not copied,
// and so is the shape of a scheme built by a constructor: it allocates
// nothing. It panics when s has a different number of punctuatable
// positions from p's constants.
func (p Punctuation) Reshape(s Scheme) Punctuation {
	sh := s.instances()
	if len(sh.idx) != len(p.consts) {
		panic(fmt.Sprintf("stream: reshaping %d constants onto %s", len(p.consts), s))
	}
	return Punctuation{shape: sh, consts: p.consts}
}

// Matches reports whether the tuple satisfies the punctuation's predicate,
// i.e. whether the punctuation promises that tuples like t will never
// arrive again.
func (p Punctuation) Matches(t Tuple) bool {
	if p.Arity() != len(t.Values) {
		return false
	}
	for k, i := range p.ConstIndexes() {
		if !p.consts[k].MatchesValue(t.Values[i]) {
			return false
		}
	}
	return true
}

// Validate checks arity and that every constant pattern's kind matches the
// schema.
func (p Punctuation) Validate(s *Schema) error {
	if p.Arity() != s.Arity() {
		return fmt.Errorf("stream: punctuation arity %d does not match schema %s", p.Arity(), s)
	}
	for k, i := range p.ConstIndexes() {
		pat := p.consts[k]
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

// String renders the punctuation as (*, 1, *).
func (p Punctuation) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the punctuation's String form to dst and returns the
// extended slice; into a reused buffer it allocates nothing.
func (p Punctuation) AppendTo(dst []byte) []byte {
	dst = append(dst, '(')
	for i := range p.Arity() {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		switch pat := p.Pattern(i); {
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
