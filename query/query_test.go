package query

import (
	"testing"

	"punctsafe/stream"
)

func ia(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }

func triQuery(t *testing.T) *CJQ {
	t.Helper()
	q, err := NewBuilder().
		AddStream(stream.MustSchema("S1", ia("A"), ia("B"))).
		AddStream(stream.MustSchema("S2", ia("B"), ia("C"))).
		AddStream(stream.MustSchema("S3", ia("A"), ia("C"))).
		Join("S1.B", "S2.B").
		Join("S2.C", "S3.C").
		Join("S3.A", "S1.A").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBuilderErrors(t *testing.T) {
	s1 := stream.MustSchema("S1", ia("A"))
	s2 := stream.MustSchema("S2", ia("A"))
	cases := []struct {
		name  string
		build func() (*CJQ, error)
	}{
		{"unknown stream", func() (*CJQ, error) {
			return NewBuilder().AddStream(s1).AddStream(s2).Join("S9.A", "S2.A").Build()
		}},
		{"unknown attr", func() (*CJQ, error) {
			return NewBuilder().AddStream(s1).AddStream(s2).Join("S1.Z", "S2.A").Build()
		}},
		{"bad ref", func() (*CJQ, error) {
			return NewBuilder().AddStream(s1).AddStream(s2).Join("S1A", "S2.A").Build()
		}},
		{"no predicates", func() (*CJQ, error) {
			return NewBuilder().AddStream(s1).AddStream(s2).Build()
		}},
		{"one stream", func() (*CJQ, error) {
			return NewBuilder().AddStream(s1).Build()
		}},
		{"nil stream", func() (*CJQ, error) {
			return NewBuilder().AddStream(nil).AddStream(s2).Build()
		}},
		{"duplicate names", func() (*CJQ, error) {
			return NewBuilder().AddStream(s1).AddStream(stream.MustSchema("S1", ia("A"))).Build()
		}},
	}
	for _, c := range cases {
		if _, err := c.build(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestKindMismatchRejected(t *testing.T) {
	s1 := stream.MustSchema("S1", ia("A"))
	s2 := stream.MustSchema("S2", stream.Attribute{Name: "A", Kind: stream.KindString})
	if _, err := NewBuilder().AddStream(s1).AddStream(s2).Join("S1.A", "S2.A").Build(); err == nil {
		t.Error("kind mismatch must be rejected")
	}
}

func TestCrossProductRejected(t *testing.T) {
	// Four streams, two disconnected join components.
	q, err := NewCJQ(
		[]*stream.Schema{
			stream.MustSchema("A", ia("x")),
			stream.MustSchema("B", ia("x")),
			stream.MustSchema("C", ia("x")),
			stream.MustSchema("D", ia("x")),
		},
		[]Predicate{
			{Left: 0, LeftAttr: 0, Right: 1, RightAttr: 0},
			{Left: 2, LeftAttr: 0, Right: 3, RightAttr: 0},
		})
	if err == nil {
		t.Fatalf("disconnected join graph must be rejected, got %s", q)
	}
}

func TestSelfJoinPredicateRejected(t *testing.T) {
	_, err := NewCJQ(
		[]*stream.Schema{stream.MustSchema("A", ia("x"), ia("y")), stream.MustSchema("B", ia("x"))},
		[]Predicate{
			{Left: 0, LeftAttr: 0, Right: 0, RightAttr: 1},
			{Left: 0, LeftAttr: 0, Right: 1, RightAttr: 0},
		})
	if err == nil {
		t.Error("self-join predicate must be rejected")
	}
}

func TestPredicateNormalizationAndDedup(t *testing.T) {
	s1 := stream.MustSchema("S1", ia("A"))
	s2 := stream.MustSchema("S2", ia("A"))
	q, err := NewCJQ([]*stream.Schema{s1, s2}, []Predicate{
		{Left: 0, LeftAttr: 0, Right: 1, RightAttr: 0},
		{Left: 1, LeftAttr: 0, Right: 0, RightAttr: 0}, // same predicate, flipped
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(q.Predicates()); got != 1 {
		t.Errorf("predicates = %d, want 1 after dedup", got)
	}
}

func TestJoinAttrsAndPartners(t *testing.T) {
	q := triQuery(t)
	if got := q.JoinAttrs(0); len(got) != 2 {
		t.Errorf("S1 join attrs = %v", got)
	}
	if got := q.JoinPartners(0, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("S1.B partners = %v, want [S2]", got)
	}
	if got := q.JoinPartners(0, 0); len(got) != 1 || got[0] != 2 {
		t.Errorf("S1.A partners = %v, want [S3]", got)
	}
	if got := q.PartnerAttr(0, 1, 1); got != 0 {
		t.Errorf("PartnerAttr(S1.B, S2) = %d, want 0 (S2.B)", got)
	}
	if got := q.PartnerAttr(0, 1, 2); got != -1 {
		t.Errorf("PartnerAttr(S1.B, S3) = %d, want -1", got)
	}
	if q.StreamIndex("S2") != 1 || q.StreamIndex("nope") != -1 {
		t.Error("StreamIndex broken")
	}
}

func TestRestrict(t *testing.T) {
	q := triQuery(t)
	sub, mapping, err := q.Restrict([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 2 || len(sub.Predicates()) != 1 {
		t.Fatalf("sub = %s", sub)
	}
	if mapping[0] != 0 || mapping[1] != 1 {
		t.Fatalf("mapping = %v", mapping)
	}
	if _, _, err := q.Restrict([]int{0}); err == nil {
		t.Error("single-stream restriction must fail")
	}
	if _, _, err := q.Restrict([]int{0, 0}); err == nil {
		t.Error("repeated stream must fail")
	}
	if _, _, err := q.Restrict([]int{0, 9}); err == nil {
		t.Error("out-of-range stream must fail")
	}
}

func TestJoinGraph(t *testing.T) {
	q := triQuery(t)
	jg := q.JoinGraph()
	if !jg.Connected() {
		t.Error("must be connected")
	}
	if !jg.HasEdge(0, 1) || !jg.HasEdge(1, 0) {
		t.Error("edges are undirected")
	}
	if got := jg.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
}

func TestQueryString(t *testing.T) {
	q := triQuery(t)
	s := q.String()
	for _, want := range []string{"S1", "S2", "S3", "S1.B = S2.B"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
