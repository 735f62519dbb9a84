package exec

import (
	"fmt"

	"punctsafe/stream"
)

// This file adapts projection to punctuated streams — the paper's
// future-work item (iii) ("extend the current safety checking framework
// ... for adapting other relational operators to the streaming
// punctuation semantics"), following the pass/propagate invariants of
// Tucker et al. [12]: a projection passes a punctuation iff all of its
// constant patterns survive the projection; a punctuation constraining a
// dropped attribute promises nothing expressible in the output schema and
// is absorbed. Projection keeps exactly the schemes whose punctuatable
// attributes survive (ProjectSchemes), so a projected stream in front of
// a join keeps the query's safety analysis valid. Selection needs no
// operator here: it passes every punctuation unchanged, and the engine
// applies SQL literal filters to input tuples before they reach the plan.

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
