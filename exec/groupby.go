package exec

import (
	"fmt"

	"punctsafe/stream"
)

// AggKind selects the aggregate a GroupBy computes.
type AggKind uint8

const (
	// AggCount counts tuples per group.
	AggCount AggKind = iota
	// AggSum sums a numeric attribute per group.
	AggSum
	// AggMin keeps the minimum of a numeric attribute per group.
	AggMin
	// AggMax keeps the maximum of a numeric attribute per group.
	AggMax
)

// GroupBy is the blocking operator of the paper's motivation (§1): it
// groups its input by one attribute and emits one aggregate tuple per
// group — but only once a punctuation certifies the group is complete.
// Without punctuations it would block forever on an unbounded stream;
// with them it streams out finished groups and frees their state
// (Example 1: "the groupby operator can now output the result for this
// item").
type GroupBy struct {
	in       *stream.Schema
	groupAt  int
	aggAt    int
	kind     AggKind
	out      *stream.Schema
	groups   map[stream.ValueKey]*groupAcc
	emitted  uint64
	maxState int
}

type groupAcc struct {
	key   stream.Value
	count int64
	sum   float64
	min   float64
	max   float64
}

// NewGroupBy builds a group-by over input schema in, grouping on
// attribute groupAttr and aggregating aggAttr (ignored for AggCount).
func NewGroupBy(in *stream.Schema, groupAttr string, kind AggKind, aggAttr string) (*GroupBy, error) {
	g := &GroupBy{in: in, kind: kind, groups: make(map[stream.ValueKey]*groupAcc)}
	g.groupAt = in.Index(groupAttr)
	if g.groupAt < 0 {
		return nil, fmt.Errorf("exec: groupby attribute %q not in %s", groupAttr, in)
	}
	aggName := "count"
	aggKind := stream.KindInt
	if kind != AggCount {
		g.aggAt = in.Index(aggAttr)
		if g.aggAt < 0 {
			return nil, fmt.Errorf("exec: aggregate attribute %q not in %s", aggAttr, in)
		}
		switch in.Attr(g.aggAt).Kind {
		case stream.KindInt, stream.KindFloat:
		default:
			return nil, fmt.Errorf("exec: aggregate attribute %q must be numeric", aggAttr)
		}
		switch kind {
		case AggSum:
			aggName = "sum_" + aggAttr
		case AggMin:
			aggName = "min_" + aggAttr
		case AggMax:
			aggName = "max_" + aggAttr
		}
		aggKind = stream.KindFloat
	}
	var err error
	g.out, err = stream.NewSchema("groupby("+in.Name()+")",
		stream.Attribute{Name: groupAttr, Kind: in.Attr(g.groupAt).Kind},
		stream.Attribute{Name: aggName, Kind: aggKind})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// OutputSchema is (groupAttr, aggregate).
func (g *GroupBy) OutputSchema() *stream.Schema { return g.out }

// GroupsHeld returns the number of open (not yet emitted) groups.
func (g *GroupBy) GroupsHeld() int { return len(g.groups) }

// MaxGroupsHeld returns the high-water mark of open groups.
func (g *GroupBy) MaxGroupsHeld() int { return g.maxState }

// Emitted returns the number of finished groups output so far.
func (g *GroupBy) Emitted() uint64 { return g.emitted }

// Push consumes one element. Tuples accumulate into their group; a
// punctuation that constrains exactly the grouping attribute closes the
// matching group, emits its aggregate and frees its state. Other
// punctuations pass through unused.
func (g *GroupBy) Push(e stream.Element) ([]stream.Element, error) {
	if !e.IsPunct() {
		t := e.Tuple()
		if err := t.Validate(g.in); err != nil {
			return nil, err
		}
		g.accumulate(t)
		if len(g.groups) > g.maxState {
			g.maxState = len(g.groups)
		}
		return nil, nil
	}
	p := e.Punct()
	if err := p.Validate(g.in); err != nil {
		return nil, err
	}
	consts := p.ConstIndexes()
	if len(consts) != 1 || consts[0] != g.groupAt {
		return nil, nil // not a group-closing punctuation
	}
	key := p.Constant(0).Value()
	acc, ok := g.groups[key.Key()]
	if !ok {
		return nil, nil // empty group: nothing to emit
	}
	delete(g.groups, key.Key())
	g.emitted++
	return []stream.Element{stream.TupleElement(g.result(acc))}, nil
}

func (g *GroupBy) accumulate(t stream.Tuple) {
	key := t.Values[g.groupAt]
	acc, ok := g.groups[key.Key()]
	if !ok {
		acc = &groupAcc{key: key}
		g.groups[key.Key()] = acc
	}
	acc.count++
	if g.kind == AggCount {
		return
	}
	v := numeric(t.Values[g.aggAt])
	acc.sum += v
	if acc.count == 1 || v < acc.min {
		acc.min = v
	}
	if acc.count == 1 || v > acc.max {
		acc.max = v
	}
}

func (g *GroupBy) result(acc *groupAcc) stream.Tuple {
	switch g.kind {
	case AggCount:
		return stream.NewTuple(acc.key, stream.Int(acc.count))
	case AggSum:
		return stream.NewTuple(acc.key, stream.Float(acc.sum))
	case AggMin:
		return stream.NewTuple(acc.key, stream.Float(acc.min))
	default:
		return stream.NewTuple(acc.key, stream.Float(acc.max))
	}
}

func numeric(v stream.Value) float64 {
	if v.Kind() == stream.KindInt {
		return float64(v.AsInt())
	}
	return v.AsFloat()
}
