package stream

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Scheme is a punctuation scheme (Section 2.3): a compile-time description
// of the punctuations a stream may carry. Each attribute slot is either
// punctuatable ("+", punctuations carry a constant there) or not ("_",
// punctuations carry a wildcard there). An actual punctuation is an
// instantiation of the scheme when its constant positions are exactly the
// scheme's punctuatable positions.
//
// As an extension beyond the paper (heartbeats [11] / watermark
// semantics), at most one punctuatable attribute may additionally be
// marked ordered ("<"): its instantiations carry a <=bound pattern
// instead of an equality constant, promising that all values at or below
// the bound are closed. For safety analysis an ordered attribute behaves
// exactly like an equality one (it is punctuatable); only the runtime
// coverage test differs (<= bound instead of exact match).
type Scheme struct {
	Stream       string // stream name the scheme belongs to
	Punctuatable []bool // per attribute: true = "+" or "<", false = "_"
	// Ordered marks the punctuatable attribute carrying <= bounds; nil
	// when the scheme is pure-equality. Ordered[i] implies Punctuatable[i].
	Ordered []bool

	// shape is the shape of the scheme's instantiations, whose positions
	// PunctuatableIndexes returns; the constructors fill it. Nil on a
	// Scheme built as a struct literal, which computes it per call.
	shape *shape
}

// NewScheme builds a scheme for the named stream. At least one attribute
// must be punctuatable; a scheme with none promises nothing and is
// rejected.
func NewScheme(streamName string, punctuatable ...bool) (Scheme, error) {
	any := false
	for _, p := range punctuatable {
		if p {
			any = true
			break
		}
	}
	if streamName == "" {
		return Scheme{}, fmt.Errorf("stream: scheme needs a stream name")
	}
	if len(punctuatable) == 0 || !any {
		return Scheme{}, fmt.Errorf("stream: scheme on %q must mark at least one attribute punctuatable", streamName)
	}
	s := Scheme{Stream: streamName, Punctuatable: punctuatable}
	s.shape = s.instances()
	return s, nil
}

// MustScheme is NewScheme that panics on error.
func MustScheme(streamName string, punctuatable ...bool) Scheme {
	s, err := NewScheme(streamName, punctuatable...)
	if err != nil {
		panic(err)
	}
	return s
}

// NewOrderedScheme builds a scheme with an ordered (watermark) attribute.
// Exactly one attribute may be ordered, and it must be punctuatable.
func NewOrderedScheme(streamName string, punctuatable, ordered []bool) (Scheme, error) {
	s, err := NewScheme(streamName, punctuatable...)
	if err != nil {
		return Scheme{}, err
	}
	if len(ordered) != len(punctuatable) {
		return Scheme{}, fmt.Errorf("stream: ordered mask arity %d != %d", len(ordered), len(punctuatable))
	}
	count := 0
	for i, o := range ordered {
		if o {
			count++
			if !punctuatable[i] {
				return Scheme{}, fmt.Errorf("stream: ordered attribute %d must be punctuatable", i)
			}
		}
	}
	if count == 0 {
		return s, nil
	}
	if count > 1 {
		return Scheme{}, fmt.Errorf("stream: at most one ordered attribute per scheme, got %d", count)
	}
	s.Ordered = append([]bool(nil), ordered...)
	return s, nil
}

// MustOrderedScheme is NewOrderedScheme that panics on error.
func MustOrderedScheme(streamName string, punctuatable, ordered []bool) Scheme {
	s, err := NewOrderedScheme(streamName, punctuatable, ordered)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attribute slots.
func (s Scheme) Arity() int { return len(s.Punctuatable) }

// PunctuatableIndexes returns the positions marked "+", ascending. The
// purge path calls it per tuple examined, so the result is shared
// between calls: callers must not modify it.
func (s Scheme) PunctuatableIndexes() []int { return s.instances().idx }

// instances returns the shape of the scheme's instantiations.
func (s Scheme) instances() *shape {
	if s.shape != nil {
		return s.shape
	}
	sh := &shape{arity: len(s.Punctuatable)}
	for i, p := range s.Punctuatable {
		if p {
			sh.idx = append(sh.idx, i)
		}
	}
	return sh
}

// OrderedIndex returns the position of the ordered attribute, or -1 for a
// pure-equality scheme.
func (s Scheme) OrderedIndex() int {
	for i, o := range s.Ordered {
		if o {
			return i
		}
	}
	return -1
}

// Validate checks the scheme against the stream schema it claims to
// describe.
func (s Scheme) Validate(sc *Schema) error {
	if s.Stream != sc.Name() {
		return fmt.Errorf("stream: scheme names stream %q, schema is %q", s.Stream, sc.Name())
	}
	if len(s.Punctuatable) != sc.Arity() {
		return fmt.Errorf("stream: scheme arity %d does not match schema %s", len(s.Punctuatable), sc)
	}
	if oi := s.OrderedIndex(); oi >= 0 {
		if k := sc.Attr(oi).Kind; k != KindInt && k != KindFloat {
			return fmt.Errorf("stream: ordered attribute %q must be numeric, is %s", sc.Attr(oi).Name, k)
		}
	}
	return nil
}

// Instantiate builds the punctuation that assigns the given constants to
// the scheme's punctuatable attributes (in ascending position order) and
// wildcards elsewhere.
func (s Scheme) Instantiate(consts ...Value) (Punctuation, error) {
	sh := s.instances()
	if len(consts) != len(sh.idx) {
		return Punctuation{}, fmt.Errorf("stream: scheme %s needs %d constants, got %d", s, len(sh.idx), len(consts))
	}
	if len(consts) == 0 {
		return Punctuation{}, errNoConstraint
	}
	pats := make([]Pattern, len(consts))
	oi := s.OrderedIndex()
	for k, i := range sh.idx {
		if i == oi {
			pats[k] = Leq(consts[k])
		} else {
			pats[k] = Const(consts[k])
		}
	}
	return Punctuation{shape: sh, consts: pats}, nil
}

// Instantiates reports whether the punctuation is an instantiation of this
// scheme: the punctuation's constant positions coincide exactly with the
// scheme's punctuatable positions, and its one ordered bound, if any, sits
// at the scheme's ordered attribute.
func (s Scheme) Instantiates(p Punctuation) bool {
	sh := s.instances()
	if p.shape != sh && (p.Arity() != sh.arity || !slices.Equal(p.ConstIndexes(), sh.idx)) {
		return false
	}
	oi := s.OrderedIndex()
	for k, i := range sh.idx {
		if p.consts[k].IsLeq() != (i == oi) {
			return false
		}
	}
	return true
}

// Equal reports structural equality of schemes.
func (s Scheme) Equal(o Scheme) bool {
	if s.Stream != o.Stream || len(s.Punctuatable) != len(o.Punctuatable) {
		return false
	}
	for i := range s.Punctuatable {
		if s.Punctuatable[i] != o.Punctuatable[i] {
			return false
		}
	}
	return s.OrderedIndex() == o.OrderedIndex()
}

// String renders the scheme as Stream(_, +, _).
func (s Scheme) String() string {
	var b strings.Builder
	b.WriteString(s.Stream)
	b.WriteByte('(')
	oi := s.OrderedIndex()
	for i, p := range s.Punctuatable {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case i == oi:
			b.WriteByte('<')
		case p:
			b.WriteByte('+')
		default:
			b.WriteByte('_')
		}
	}
	b.WriteByte(')')
	return b.String()
}

// SchemeSet is the punctuation scheme set ℜ held by the query register: a
// multimap from stream name to the schemes available on that stream.
type SchemeSet struct {
	byStream map[string][]Scheme
	count    int
}

// NewSchemeSet builds a set from the given schemes, deduplicating exact
// repeats.
func NewSchemeSet(schemes ...Scheme) *SchemeSet {
	set := &SchemeSet{byStream: make(map[string][]Scheme)}
	for _, s := range schemes {
		set.Add(s)
	}
	return set
}

// Add inserts a scheme unless an identical one is already present.
// It reports whether the scheme was added.
func (ss *SchemeSet) Add(s Scheme) bool {
	for _, have := range ss.byStream[s.Stream] {
		if have.Equal(s) {
			return false
		}
	}
	ss.byStream[s.Stream] = append(ss.byStream[s.Stream], s)
	ss.count++
	return true
}

// ForStream returns the schemes registered for the named stream.
func (ss *SchemeSet) ForStream(name string) []Scheme {
	return ss.byStream[name]
}

// Len returns the total number of schemes in the set.
func (ss *SchemeSet) Len() int { return ss.count }

// All returns every scheme, grouped by stream name (names sorted) for
// deterministic iteration.
func (ss *SchemeSet) All() []Scheme {
	names := make([]string, 0, len(ss.byStream))
	for n := range ss.byStream {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Scheme
	for _, n := range names {
		out = append(out, ss.byStream[n]...)
	}
	return out
}

// Clone returns a deep copy of the set.
func (ss *SchemeSet) Clone() *SchemeSet {
	return NewSchemeSet(ss.All()...)
}

// String lists the schemes.
func (ss *SchemeSet) String() string {
	var parts []string
	for _, s := range ss.All() {
		parts = append(parts, s.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
