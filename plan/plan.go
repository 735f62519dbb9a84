// Package plan models execution plans for continuous join queries and
// implements the §5.2 machinery around them: checking a concrete plan's
// safety (Definition 2: every operator purgeable), enumerating safe plans
// from strongly connected sub-graphs of the punctuation graph, deriving
// the punctuation schemes of intermediate streams (so upper operators of
// tree plans can be analysed and executed), and a cost model to choose
// among safe alternatives.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"punctsafe/query"
	"punctsafe/safety"
	"punctsafe/stream"
)

// Node is one node of an execution plan tree. A leaf references a stream
// of the query by index; an internal node is a join operator (binary when
// it has two children, MJoin otherwise) over its children's outputs.
type Node struct {
	// Stream is the query stream index for a leaf; -1 for join nodes.
	Stream int
	// Children are the operator inputs of a join node (nil for leaves).
	Children []*Node
}

// Leaf returns a leaf node for query stream index i.
func Leaf(i int) *Node { return &Node{Stream: i} }

// Join returns a join node over the given children.
func Join(children ...*Node) *Node {
	return &Node{Stream: -1, Children: children}
}

// IsLeaf reports whether the node is a stream leaf.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Leaves returns the query stream indices covered by the subtree, in
// left-to-right (in-order) sequence.
func (n *Node) Leaves() []int {
	if n.IsLeaf() {
		return []int{n.Stream}
	}
	var out []int
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Operators returns every join node of the subtree, bottom-up (children
// before parents).
func (n *Node) Operators() []*Node {
	if n.IsLeaf() {
		return nil
	}
	var out []*Node
	for _, c := range n.Children {
		out = append(out, c.Operators()...)
	}
	return append(out, n)
}

// String renders the tree, e.g. ((0 ⨝ 1) ⨝ 2).
func (n *Node) String() string {
	if n.IsLeaf() {
		return fmt.Sprintf("%d", n.Stream)
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " JOIN ") + ")"
}

// Render renders the tree with stream names from the query.
func (n *Node) Render(q *query.CJQ) string {
	if n.IsLeaf() {
		return q.Stream(n.Stream).Name()
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = c.Render(q)
	}
	return "(" + strings.Join(parts, " JOIN ") + ")"
}

// Validate checks that the tree is a well-formed plan for q: every join
// node has at least two children, every query stream appears exactly
// once as a leaf, and every join node's children are pairwise connected
// by at least one predicate (no cross products).
func (n *Node) Validate(q *query.CJQ) error {
	leaves := n.Leaves()
	seen := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		if l < 0 || l >= q.N() {
			return fmt.Errorf("plan: leaf %d out of range", l)
		}
		if seen[l] {
			return fmt.Errorf("plan: stream %d appears twice", l)
		}
		seen[l] = true
	}
	if len(seen) != q.N() {
		return fmt.Errorf("plan: covers %d of %d streams", len(seen), q.N())
	}
	for _, op := range n.Operators() {
		if len(op.Children) < 2 {
			return fmt.Errorf("plan: join node with %d child(ren)", len(op.Children))
		}
		if _, err := OperatorQuery(q, op); err != nil {
			return err
		}
	}
	return nil
}

// OperatorQuery builds the join query one operator of the plan executes:
// each child is one input stream (leaves keep their schema; internal
// children get the derived intermediate schema), and the predicates are
// the original predicates crossing between the children's leaf sets.
func OperatorQuery(q *query.CJQ, op *Node) (*query.CJQ, error) {
	if op.IsLeaf() {
		return nil, fmt.Errorf("plan: OperatorQuery on a leaf")
	}
	schemas := make([]*stream.Schema, len(op.Children))
	// colOf[child][origStream] = column offset of that stream's attributes
	// within the child's output schema.
	colOf := make([]map[int]int, len(op.Children))
	childOf := make(map[int]int) // original stream -> child index
	for ci, c := range op.Children {
		schemas[ci] = SubtreeSchema(q, c)
		colOf[ci] = make(map[int]int)
		off := 0
		for _, leaf := range c.Leaves() {
			colOf[ci][leaf] = off
			off += q.Stream(leaf).Arity()
			childOf[leaf] = ci
		}
	}
	var preds []query.Predicate
	for _, p := range q.Predicates() {
		lc, lok := childOf[p.Left]
		rc, rok := childOf[p.Right]
		if !lok || !rok || lc == rc {
			continue
		}
		preds = append(preds, query.Predicate{
			Left:      lc,
			LeftAttr:  colOf[lc][p.Left] + p.LeftAttr,
			Right:     rc,
			RightAttr: colOf[rc][p.Right] + p.RightAttr,
		})
	}
	oq, err := query.NewCJQ(schemas, preds)
	if err != nil {
		return nil, fmt.Errorf("plan: operator %s: %w", op.Render(q), err)
	}
	return oq, nil
}

// SubtreeSchema returns the schema a subtree's output carries: the leaf's
// schema for leaves, otherwise the concatenation of the leaf schemas in
// subtree order with globally unique column names <stream>_<attr>.
func SubtreeSchema(q *query.CJQ, n *Node) *stream.Schema {
	if n.IsLeaf() {
		return q.Stream(n.Stream)
	}
	var attrs []stream.Attribute
	var names []string
	for _, leaf := range n.Leaves() {
		sc := q.Stream(leaf)
		names = append(names, sc.Name())
		for i := 0; i < sc.Arity(); i++ {
			attrs = append(attrs, stream.Attribute{
				Name: sc.Name() + "_" + sc.Attr(i).Name,
				Kind: sc.Attr(i).Kind,
			})
		}
	}
	return stream.MustSchema("("+strings.Join(names, "*")+")", attrs...)
}

// DerivedSchemes lifts the punctuation schemes of a subtree's leaf
// streams onto the subtree's output schema. An operator propagates a
// punctuation to its output once no stored tuple of that input matches
// it, so every leaf scheme yields an output scheme with the same
// punctuatable attributes at their concatenated positions.
func DerivedSchemes(q *query.CJQ, schemes *stream.SchemeSet, n *Node) []stream.Scheme {
	if n.IsLeaf() {
		return schemes.ForStream(q.Stream(n.Stream).Name())
	}
	out := SubtreeSchema(q, n)
	var lifted []stream.Scheme
	off := 0
	for _, leaf := range n.Leaves() {
		sc := q.Stream(leaf)
		for _, s := range schemes.ForStream(sc.Name()) {
			mask := make([]bool, out.Arity())
			ordered := make([]bool, out.Arity())
			for _, a := range s.PunctuatableIndexes() {
				mask[off+a] = true
			}
			if oi := s.OrderedIndex(); oi >= 0 {
				ordered[off+oi] = true
			}
			lifted = append(lifted, stream.MustOrderedScheme(out.Name(), mask, ordered))
		}
		off += sc.Arity()
	}
	return lifted
}

// OperatorSchemes assembles the scheme set visible to one operator: the
// derived schemes of each child.
func OperatorSchemes(q *query.CJQ, schemes *stream.SchemeSet, op *Node) *stream.SchemeSet {
	set := stream.NewSchemeSet()
	for _, c := range op.Children {
		for _, s := range DerivedSchemes(q, schemes, c) {
			set.Add(s)
		}
	}
	return set
}

// OperatorReport is the safety analysis of one plan operator.
type OperatorReport struct {
	Op        *Node
	Query     *query.CJQ
	Purgeable bool
	// InputPurgeable[i] is the Theorem 3 verdict per operator input.
	InputPurgeable []bool
}

// CheckPlan decides Definition 2: a plan is safe iff every join operator
// is purgeable under the schemes visible to it (leaf schemes plus the
// schemes derived for intermediate inputs). It returns the per-operator
// reports bottom-up.
func CheckPlan(q *query.CJQ, schemes *stream.SchemeSet, root *Node) (bool, []OperatorReport, error) {
	if err := root.Validate(q); err != nil {
		return false, nil, err
	}
	safe := true
	var reports []OperatorReport
	for _, op := range root.Operators() {
		oq, err := OperatorQuery(q, op)
		if err != nil {
			return false, nil, err
		}
		oset := OperatorSchemes(q, schemes, op)
		gpg := safety.BuildGPG(oq, oset)
		rep := OperatorReport{Op: op, Query: oq, InputPurgeable: make([]bool, oq.N())}
		rep.Purgeable = true
		for i := 0; i < oq.N(); i++ {
			rep.InputPurgeable[i] = gpg.StreamPurgeable(i)
			if !rep.InputPurgeable[i] {
				rep.Purgeable = false
			}
		}
		if !rep.Purgeable {
			safe = false
		}
		reports = append(reports, rep)
	}
	return safe, reports, nil
}

// subsetKey encodes a stream subset as a bitmask (queries are small; the
// enumerator refuses queries beyond 20 streams).
type subsetKey uint32

func (k subsetKey) streams() []int {
	var out []int
	for i := 0; k != 0; i++ {
		if k&1 != 0 {
			out = append(out, i)
		}
		k >>= 1
	}
	return out
}

func (k subsetKey) count() int {
	c := 0
	for k != 0 {
		c += int(k & 1)
		k >>= 1
	}
	return c
}

// EnumerateSafe enumerates safe execution plans bottom-up in the System-R
// style over strongly connected sub-graphs (§5.2 "Plan Enumeration"): a
// subset of streams is a building block iff some operator tree over it is
// safe; blocks compose by binary joins, and every connected subset also
// admits the flat MJoin over its streams when that operator is purgeable.
// It returns all safe plans found, best-cost first according to the cost
// model (pass nil for the default model). The search covers flat MJoins,
// all binary trees, and mixed trees whose internal MJoins are flat; this
// is the paper's building-block construction.
func EnumerateSafe(q *query.CJQ, schemes *stream.SchemeSet, model *CostModel) ([]*Node, error) {
	if q.N() > 20 {
		return nil, fmt.Errorf("plan: enumeration supports up to 20 streams, query has %d", q.N())
	}
	if model == nil {
		model = DefaultCostModel(q)
	}
	full := subsetKey(1<<uint(q.N())) - 1

	// plans[k] holds the safe plans whose leaves are exactly subset k.
	plans := make(map[subsetKey][]*Node)
	for i := 0; i < q.N(); i++ {
		plans[1<<uint(i)] = []*Node{Leaf(i)}
	}

	// Enumerate subsets by population count.
	var keys []subsetKey
	for k := subsetKey(1); k <= full; k++ {
		if k.count() >= 2 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].count() < keys[b].count() })

	for _, k := range keys {
		var found []*Node
		seen := make(map[string]bool)
		add := func(node *Node) {
			key := node.String()
			if !seen[key] {
				seen[key] = true
				found = append(found, node)
			}
		}
		// Flat MJoin over the subset's streams.
		if node := Join(leafNodes(k.streams())...); subsetSafe(q, schemes, node) {
			add(node)
		}
		// Binary composition of two smaller safe blocks.
		for a := (k - 1) & k; a > 0; a = (a - 1) & k {
			b := k &^ a
			if a > b {
				continue // each split once
			}
			for _, pa := range plans[a] {
				for _, pb := range plans[b] {
					node := Join(pa, pb)
					if subsetSafe(q, schemes, node) {
						add(node)
					}
				}
			}
		}
		if len(found) > 0 {
			// Keep the cheapest few per subset to bound growth.
			sort.Slice(found, func(i, j int) bool {
				return model.PlanCost(q, schemes, found[i]).Total() < model.PlanCost(q, schemes, found[j]).Total()
			})
			if len(found) > 4 {
				found = found[:4]
			}
			plans[k] = found
		}
	}
	out := plans[full]
	sort.Slice(out, func(i, j int) bool {
		return model.PlanCost(q, schemes, out[i]).Total() < model.PlanCost(q, schemes, out[j]).Total()
	})
	return out, nil
}

// ChooseSafe returns the cheapest safe plan, or an error naming the
// failure when the query is unsafe (per Theorem 4 no plan can exist).
func ChooseSafe(q *query.CJQ, schemes *stream.SchemeSet, model *CostModel) (*Node, error) {
	rep, err := safety.Check(q, schemes)
	if err != nil {
		return nil, err
	}
	if !rep.Safe {
		return nil, fmt.Errorf("plan: query is unsafe under the given punctuation schemes:\n%s", rep.Explain(q))
	}
	cands, err := EnumerateSafe(q, schemes, model)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		// Theorem 4 guarantees the flat MJoin is safe when the query is.
		return Join(leafNodes(rangeInts(q.N()))...), nil
	}
	return cands[0], nil
}

func leafNodes(streams []int) []*Node {
	out := make([]*Node, len(streams))
	for i, s := range streams {
		out[i] = Leaf(s)
	}
	return out
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// subsetSafe checks whether the single operator at the root of node is
// purgeable (children assumed safe already by DP construction), and the
// node's children are joinable (connected).
func subsetSafe(q *query.CJQ, schemes *stream.SchemeSet, node *Node) bool {
	oq, err := OperatorQuery(q, node)
	if err != nil {
		return false
	}
	return safety.BuildGPG(oq, OperatorSchemes(q, schemes, node)).StronglyConnected()
}
