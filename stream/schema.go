package stream

import (
	"fmt"
	"slices"
	"strings"
)

// Attribute describes one column of a stream schema.
type Attribute struct {
	Name string
	Kind Kind
}

// Schema is the relational schema of a data stream: an ordered list of
// named, typed attributes. Schemas are immutable after construction.
type Schema struct {
	name  string
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema for the stream called name. Attribute names
// must be unique and non-empty.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("stream: schema needs a stream name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("stream: schema %q needs at least one attribute", name)
	}
	s := &Schema{
		name:  name,
		attrs: append([]Attribute(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("stream: schema %q attribute %d has empty name", name, i)
		}
		if a.Kind == KindInvalid {
			return nil, fmt.Errorf("stream: schema %q attribute %q has invalid kind", name, a.Name)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("stream: schema %q has duplicate attribute %q", name, a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests,
// examples and statically known schemas.
func MustSchema(name string, attrs ...Attribute) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the stream name.
func (s *Schema) Name() string { return s.name }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// String renders the schema as Name(attr:kind, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", a.Name, a.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one data element of a stream: a flat value list positionally
// matching a schema. Tuples are treated as immutable once emitted.
type Tuple struct {
	Values []Value
}

// NewTuple wraps values into a tuple.
func NewTuple(values ...Value) Tuple { return Tuple{Values: values} }

// Clone returns a copy of the tuple with Values of its own, for a
// consumer that keeps a tuple it was lent.
func (t Tuple) Clone() Tuple { return Tuple{Values: slices.Clone(t.Values)} }

// Validate checks the tuple against a schema: arity and per-attribute kind.
func (t Tuple) Validate(s *Schema) error {
	if len(t.Values) != s.Arity() {
		return fmt.Errorf("stream: tuple arity %d does not match schema %s", len(t.Values), s)
	}
	for i, v := range t.Values {
		if v.Kind() != s.attrs[i].Kind {
			return fmt.Errorf("stream: attribute %q expects %s, tuple has %s",
				s.attrs[i].Name, s.attrs[i].Kind, v.Kind())
		}
	}
	return nil
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
