package exec

import (
	"fmt"

	"punctsafe/stream"
)

// This file adapts the remaining relational operators to punctuated
// streams — the paper's future-work item (iii) ("extend the current
// safety checking framework ... for adapting other relational operators
// to the streaming punctuation semantics"), following the pass/propagate
// invariants of Tucker et al. [12]:
//
//   - Selection is stateless; it passes every punctuation through
//     unchanged (a promise about all future tuples holds a fortiori for
//     the selected subset).
//   - Projection passes a punctuation iff all of its constant patterns
//     survive the projection; a punctuation constraining a dropped
//     attribute promises nothing expressible in the output schema and is
//     absorbed.
//
// Both preserve punctuation scheme guarantees, so a Select/Project
// pipeline in front of a join keeps the query's safety analysis valid:
// selection leaves schemes untouched, projection keeps exactly the
// schemes whose punctuatable attributes survive (ProjectSchemes).

// Predicate is a tuple filter for Select.
type FilterFunc func(stream.Tuple) bool

// Select filters tuples by a predicate and forwards punctuations
// unchanged.
type Select struct {
	in     *stream.Schema
	filter FilterFunc
	// Passed and Dropped count tuples.
	Passed  uint64
	Dropped uint64
}

// NewSelect builds a selection over the input schema.
func NewSelect(in *stream.Schema, filter FilterFunc) (*Select, error) {
	if filter == nil {
		return nil, fmt.Errorf("exec: Select needs a filter")
	}
	return &Select{in: in, filter: filter}, nil
}

// OutputSchema equals the input schema.
func (s *Select) OutputSchema() *stream.Schema { return s.in }

// Push consumes one element.
func (s *Select) Push(e stream.Element) ([]stream.Element, error) {
	if e.IsPunct() {
		if err := e.Punct().Validate(s.in); err != nil {
			return nil, err
		}
		return []stream.Element{e}, nil
	}
	t := e.Tuple()
	if err := t.Validate(s.in); err != nil {
		return nil, err
	}
	if s.filter(t) {
		s.Passed++
		return []stream.Element{e}, nil
	}
	s.Dropped++
	return nil, nil
}

// AttrEquals returns a filter keeping tuples whose named attribute equals
// the value.
func AttrEquals(in *stream.Schema, attr string, v stream.Value) (FilterFunc, error) {
	i := in.Index(attr)
	if i < 0 {
		return nil, fmt.Errorf("exec: schema %s has no attribute %q", in, attr)
	}
	return func(t stream.Tuple) bool { return t.Values[i].Equal(v) }, nil
}

// Project narrows elements to a subset of attributes (by position).
type Project struct {
	in   *stream.Schema
	out  *stream.Schema
	keep []int
	// kept maps an input position to its output position.
	kept map[int]int
	// Absorbed counts punctuations that could not be expressed in the
	// output schema and were dropped.
	Absorbed uint64
}

// NewProject builds a projection keeping the named attributes, in the
// given order.
func NewProject(in *stream.Schema, attrs ...string) (*Project, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("exec: projection needs at least one attribute")
	}
	p := &Project{in: in, kept: make(map[int]int, len(attrs))}
	var outAttrs []stream.Attribute
	for _, name := range attrs {
		i := in.Index(name)
		if i < 0 {
			return nil, fmt.Errorf("exec: schema %s has no attribute %q", in, name)
		}
		p.kept[i] = len(p.keep)
		p.keep = append(p.keep, i)
		outAttrs = append(outAttrs, in.Attr(i))
	}
	out, err := stream.NewSchema("project("+in.Name()+")", outAttrs...)
	if err != nil {
		return nil, err
	}
	p.out = out
	return p, nil
}

// OutputSchema is the projected schema.
func (p *Project) OutputSchema() *stream.Schema { return p.out }

// Push consumes one element. Note that projection does not deduplicate
// (bag semantics), so it remains non-blocking and stateless.
func (p *Project) Push(e stream.Element) ([]stream.Element, error) {
	if !e.IsPunct() {
		t := e.Tuple()
		if err := t.Validate(p.in); err != nil {
			return nil, err
		}
		values := make([]stream.Value, len(p.keep))
		for k, i := range p.keep {
			values[k] = t.Values[i]
		}
		return []stream.Element{stream.TupleElement(stream.NewTuple(values...))}, nil
	}
	punct := e.Punct()
	if err := punct.Validate(p.in); err != nil {
		return nil, err
	}
	// The punctuation survives iff every constant pattern's attribute is
	// kept.
	pats := make([]stream.Pattern, len(p.keep))
	for i := range pats {
		pats[i] = stream.Wildcard()
	}
	for c, ci := range punct.ConstIndexes() {
		k, ok := p.kept[ci]
		if !ok {
			p.Absorbed++
			return nil, nil
		}
		pats[k] = punct.Constant(c)
	}
	out, err := stream.NewPunctuation(pats...)
	if err != nil {
		// All constants were projected away is impossible here (handled
		// above), so this only guards an all-wildcard input punctuation,
		// which Validate/NewPunctuation already forbid upstream.
		p.Absorbed++
		return nil, nil
	}
	return []stream.Element{stream.PunctElement(out)}, nil
}

// ProjectSchemes maps a stream's punctuation schemes through a projection:
// a scheme survives iff all its punctuatable attributes are kept, with
// positions remapped to the output schema. This is the compile-time
// counterpart of Project.Push's punctuation rule, used to safety-check
// queries over projected streams.
func ProjectSchemes(p *Project, schemes []stream.Scheme) []stream.Scheme {
	var out []stream.Scheme
	for _, s := range schemes {
		mask := make([]bool, p.out.Arity())
		ordered := make([]bool, p.out.Arity())
		ok := true
		for _, a := range s.PunctuatableIndexes() {
			k, has := p.kept[a]
			if !has {
				ok = false
				break
			}
			mask[k] = true
		}
		if oi := s.OrderedIndex(); ok && oi >= 0 {
			ordered[p.kept[oi]] = true
		}
		if ok {
			out = append(out, stream.MustOrderedScheme(p.out.Name(), mask, ordered))
		}
	}
	return out
}
