package stream

import "fmt"

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
// of its non-wildcard patterns. Positionally aligned with the stream
// schema. A punctuation whose patterns are all wildcards would assert the
// end of the stream; constructors reject it because the paper's schemes
// always instantiate at least one constant.
type Punctuation struct {
	Patterns []Pattern
}

// NewPunctuation wraps patterns into a punctuation.
func NewPunctuation(patterns ...Pattern) (Punctuation, error) {
	allWild := true
	for _, p := range patterns {
		if !p.IsWildcard() {
			allWild = false
			break
		}
	}
	if len(patterns) == 0 || allWild {
		return Punctuation{}, fmt.Errorf("stream: punctuation must constrain at least one attribute")
	}
	return Punctuation{Patterns: patterns}, nil
}

// MustPunctuation is NewPunctuation that panics on error.
func MustPunctuation(patterns ...Pattern) Punctuation {
	p, err := NewPunctuation(patterns...)
	if err != nil {
		panic(err)
	}
	return p
}

// Matches reports whether the tuple satisfies the punctuation's predicate,
// i.e. whether the punctuation promises that tuples like t will never
// arrive again.
func (p Punctuation) Matches(t Tuple) bool {
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

// ConstIndexes returns the positions of the non-wildcard patterns, in
// ascending order.
func (p Punctuation) ConstIndexes() []int {
	var out []int
	for i, pat := range p.Patterns {
		if !pat.IsWildcard() {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks arity and that every constant pattern's kind matches the
// schema.
func (p Punctuation) Validate(s *Schema) error {
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

// String renders the punctuation as (*, 1, *).
func (p Punctuation) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the punctuation's String form to dst and returns the
// extended slice; into a reused buffer it allocates nothing.
func (p Punctuation) AppendTo(dst []byte) []byte {
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
