package main

import (
	"fmt"
	"math"
	"strings"

	"punctsafe/query"
	"punctsafe/stream"
)

// The reference is a naive hash join over the whole generated feed that
// ignores punctuations: in a feed that keeps its promises a punctuation
// may only purge state, never change the result set, so the join of all
// tuples is what every configuration of the engine must deliver. It
// yields the result count and an order-independent checksum (the wrapping
// sum of one hash per result tuple), which every pass is checked against.

// hashTuple hashes one result tuple's values in column order. It is
// called on the consumer side for every delivered result, so it is a few
// multiplies per column rather than a general-purpose hash.
func hashTuple(vals []stream.Value) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h = mixValue(h, v)
	}
	return h ^ h>>32
}

func mixValue(h uint64, v stream.Value) uint64 {
	const m = 0xD6E8FEB86659FD93
	var x uint64
	switch v.Kind() {
	case stream.KindInt:
		x = uint64(v.AsInt())
	case stream.KindFloat:
		x = math.Float64bits(v.AsFloat())
	default:
		s := v.AsString()
		x = uint64(len(s))
		for i := 0; i < len(s); i++ {
			x = (x ^ uint64(s[i])) * m
		}
	}
	h = (h ^ x) * m
	return h ^ h>>29
}

// column locates one output column in the join's inputs.
type column struct{ stream, attr int }

// outputLayout maps every column of the engine's output schema back to
// the (stream, attribute) it carries. exec names result columns
// <stream>_<attr>, prefixed once more per intermediate operator of a
// tree plan, so the input column is identified by name suffix; anything
// but a one-to-one match is reported rather than guessed at.
func outputLayout(q *query.CJQ, out *stream.Schema) ([]column, error) {
	cols := make([]column, out.Arity())
	for c := range cols {
		cols[c] = column{-1, -1}
		name := out.Attr(c).Name
		for s := 0; s < q.N(); s++ {
			sc := q.Stream(s)
			for a := 0; a < sc.Arity(); a++ {
				full := sc.Name() + "_" + sc.Attr(a).Name
				if name != full && !strings.HasSuffix(name, "_"+full) {
					continue
				}
				if cols[c].stream >= 0 {
					return nil, fmt.Errorf("output column %q matches two input columns", name)
				}
				cols[c] = column{s, a}
			}
		}
		if cols[c].stream < 0 {
			return nil, fmt.Errorf("output column %q matches no input column", name)
		}
	}
	return cols, nil
}

// oracle is the reference answer for one feed.
type oracle struct {
	count    int
	checksum uint64
}

// reference joins every tuple of the feed. Streams are bound in
// breadth-first order over the join graph from stream 0; each new stream
// is probed through a hash index on one predicate that links it to an
// already bound stream, and its remaining predicates are checked on the
// candidates.
func reference(f *feed, layout []column) oracle {
	q := f.q
	n := q.N()
	tuples := make([][][]stream.Value, n)
	for i, e := range f.elems {
		if !e.IsPunct() {
			s := f.sidx[i]
			tuples[s] = append(tuples[s], e.Tuple().Values)
		}
	}

	type link struct{ attr, toStream, toAttr int }
	order := []int{0}
	bound := map[int]bool{0: true}
	links := make([][]link, n) // per stream: predicates to streams bound before it
	for len(order) < n {
		progressed := false
		for s := 0; s < n && !progressed; s++ {
			if bound[s] {
				continue
			}
			for _, p := range q.PredicatesTouching(s) {
				if p.Right != s {
					p = query.Predicate{Left: p.Right, LeftAttr: p.RightAttr, Right: p.Left, RightAttr: p.LeftAttr}
				}
				if bound[p.Left] {
					links[s] = append(links[s], link{p.RightAttr, p.Left, p.LeftAttr})
				}
			}
			if len(links[s]) > 0 {
				order = append(order, s)
				bound[s] = true
				progressed = true
			}
		}
		if !progressed {
			panic("bench: join graph is not connected")
		}
	}

	index := make([]map[stream.ValueKey][]int32, n)
	for _, s := range order[1:] {
		idx := make(map[stream.ValueKey][]int32)
		for ti, vals := range tuples[s] {
			k := vals[links[s][0].attr].Key()
			idx[k] = append(idx[k], int32(ti))
		}
		index[s] = idx
	}

	var res oracle
	cur := make([][]stream.Value, n)
	row := make([]stream.Value, len(layout))
	var extend func(depth int)
	extend = func(depth int) {
		if depth == n {
			for c, col := range layout {
				row[c] = cur[col.stream][col.attr]
			}
			res.count++
			res.checksum += hashTuple(row)
			return
		}
		s := order[depth]
		first := links[s][0]
	candidates:
		for _, ti := range index[s][cur[first.toStream][first.toAttr].Key()] {
			vals := tuples[s][ti]
			for _, l := range links[s][1:] {
				if !vals[l.attr].Equal(cur[l.toStream][l.toAttr]) {
					continue candidates
				}
			}
			cur[s] = vals
			extend(depth + 1)
		}
	}
	for _, vals := range tuples[0] {
		cur[0] = vals
		extend(1)
	}
	return res
}
