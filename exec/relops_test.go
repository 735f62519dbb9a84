package exec

import (
	"testing"

	"punctsafe/query"
	"punctsafe/safety"
	"punctsafe/stream"
)

func TestProjectTuplesAndPunctuations(t *testing.T) {
	in := mustSchema("S", "A", "B", "C")
	p, err := NewProject(in, "C", "A")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.OutputSchema().String(); got != "project(S)(C:int, A:int)" {
		t.Fatalf("output schema = %s", got)
	}
	out, err := p.Push(stream.TupleElement(tup(1, 2, 3)))
	if err != nil || len(out) != 1 {
		t.Fatal(out, err)
	}
	r := out[0].Tuple()
	if r.Values[0].AsInt() != 3 || r.Values[1].AsInt() != 1 {
		t.Fatalf("projected tuple = %s", r)
	}
	// Punctuation on kept attribute A: survives, remapped to position 1.
	out, err = p.Push(stream.PunctElement(punct(5, -1, -1)))
	if err != nil || len(out) != 1 {
		t.Fatal(out, err)
	}
	pp := out[0].Punct()
	if !pp.Pattern(0).IsWildcard() || pp.Pattern(1).Value().AsInt() != 5 {
		t.Fatalf("projected punctuation = %s", pp)
	}
	// Punctuation constraining dropped attribute B: absorbed.
	out, err = p.Push(stream.PunctElement(punct(-1, 9, -1)))
	if err != nil || len(out) != 0 {
		t.Fatalf("punctuation on dropped attribute must be absorbed: %v", out)
	}
	// Mixed: one kept, one dropped constant -> absorbed (the promise is
	// not expressible on the output schema).
	out, err = p.Push(stream.PunctElement(punct(5, 9, -1)))
	if err != nil || len(out) != 0 {
		t.Fatalf("partially-expressible punctuation must be absorbed: %v", out)
	}
	if p.Absorbed != 2 {
		t.Fatalf("absorbed = %d", p.Absorbed)
	}
	if _, err := NewProject(in); err == nil {
		t.Fatal("empty projection must be rejected")
	}
	if _, err := NewProject(in, "Z"); err == nil {
		t.Fatal("unknown attribute must be rejected")
	}
}

// TestProjectSchemes: the compile-time scheme mapping matches the runtime
// punctuation rule, so a projected stream can feed a safety-checked join.
func TestProjectSchemes(t *testing.T) {
	in := mustSchema("S", "A", "B", "C")
	p, err := NewProject(in, "C", "A")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []stream.Scheme{
		stream.MustScheme("S", true, false, false), // on A -> survives at pos 1
		stream.MustScheme("S", false, true, false), // on B -> dropped
		stream.MustScheme("S", true, false, true),  // on A,C -> survives at pos 0,1
	}
	out := ProjectSchemes(p, schemes)
	if len(out) != 2 {
		t.Fatalf("surviving schemes = %d, want 2", len(out))
	}
	if out[0].String() != "project(S)(_, +)" {
		t.Errorf("scheme 0 = %s", out[0])
	}
	if out[1].String() != "project(S)(+, +)" {
		t.Errorf("scheme 1 = %s", out[1])
	}
}

// TestProjectJoinPipeline runs the relational pipeline the future-work
// item sketches: Project -> Join, with punctuations flowing through the
// projection and still purging the join.
func TestProjectJoinPipeline(t *testing.T) {
	// Raw stream: events(K, V, tag); project (K, V), join with ref(K, W)
	// on K.
	events := mustSchema("events", "K", "V", "tag")
	proj, err := NewProject(events, "K", "V")
	if err != nil {
		t.Fatal(err)
	}

	ref := mustSchema("ref", "K", "W")
	q, err := query.NewBuilder().
		AddStream(proj.OutputSchema()).
		AddStream(ref).
		Join(proj.OutputSchema().Name()+".K", "ref.K").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Schemes: events punctuates K; ref punctuates K. The events scheme
	// maps through the projection.
	eventSchemes := []stream.Scheme{stream.MustScheme("events", true, false, false)}
	schemes := stream.NewSchemeSet(stream.MustScheme("ref", true, false))
	for _, s := range ProjectSchemes(proj, eventSchemes) {
		schemes.Add(s)
	}
	rep, err := safety.Check(q, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Fatalf("pipeline join should be safe:\n%s", rep.Explain(q))
	}
	m, err := NewMJoin(Config{Query: q, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}

	feedEvent := func(e stream.Element) int {
		po, err := proj.Push(e)
		if err != nil {
			t.Fatal(err)
		}
		results := 0
		for _, pe := range po {
			jo, err := m.Push(0, pe)
			if err != nil {
				t.Fatal(err)
			}
			results += countTuples(jo)
		}
		return results
	}

	if _, err := m.Push(1, stream.TupleElement(tup(7, 700))); err != nil {
		t.Fatal(err)
	}
	if got := feedEvent(stream.TupleElement(tup(7, 1, 1))); got != 1 {
		t.Fatalf("projected event should join, got %d", got)
	}
	// Punctuation on events.K=7 flows through Project and purges the
	// stored ref tuple.
	feedEvent(stream.PunctElement(punct(7, -1, -1)))
	if m.Stats().StateSize[1] != 0 {
		t.Fatalf("ref tuple should purge via the propagated punctuation, state=%v", m.Stats().StateSize)
	}
	// Ref punctuation purges the stored (projected) event tuple.
	if _, err := m.Push(1, stream.PunctElement(punct(7, -1))); err != nil {
		t.Fatal(err)
	}
	if m.Stats().StateSize[0] != 0 {
		t.Fatalf("event side should purge, state=%v", m.Stats().StateSize)
	}
}
