package exec

import (
	"fmt"

	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
)

// Tree executes a plan tree: one MJoin per join node, with each
// operator's outputs (result tuples and propagated punctuations) fed to
// its parent. Pushing a raw stream element routes it to the operator
// holding that stream as a leaf; the returned elements are the root
// operator's outputs.
type Tree struct {
	q    *query.CJQ
	root *treeOp
	// leafRoute[streamIdx] locates the operator input a raw stream feeds.
	leafRoute []struct {
		op    *treeOp
		input int
	}
	ops []*treeOp // bottom-up
}

type treeOp struct {
	node   *plan.Node
	join   *MJoin
	parent *treeOp
	// inputIdx is this operator's input position within its parent.
	inputIdx int
}

// NewTree compiles a validated plan into an operator tree. The base
// config's purge knobs (PurgeBatch, PunctLifespan, PurgePunctuations,
// DisablePurge) apply to every operator; Query and Schemes describe the
// whole continuous join query and the register's scheme set.
func NewTree(base Config, root *plan.Node) (*Tree, error) {
	if base.Query == nil {
		return nil, fmt.Errorf("exec: Config.Query is nil")
	}
	if base.Schemes == nil {
		base.Schemes = stream.NewSchemeSet()
	}
	if err := root.Validate(base.Query); err != nil {
		return nil, err
	}
	t := &Tree{q: base.Query}
	t.leafRoute = make([]struct {
		op    *treeOp
		input int
	}, base.Query.N())

	var build func(n *plan.Node, parent *treeOp, inputIdx int) (*treeOp, error)
	build = func(n *plan.Node, parent *treeOp, inputIdx int) (*treeOp, error) {
		oq, err := plan.OperatorQuery(base.Query, n)
		if err != nil {
			return nil, err
		}
		oset := plan.OperatorSchemes(base.Query, base.Schemes, n)
		cfg := base
		cfg.Query = oq
		cfg.Schemes = oset
		join, err := NewMJoin(cfg)
		if err != nil {
			return nil, err
		}
		op := &treeOp{node: n, join: join, parent: parent, inputIdx: inputIdx}
		for ci, child := range n.Children {
			if child.IsLeaf() {
				t.leafRoute[child.Stream] = struct {
					op    *treeOp
					input int
				}{op: op, input: ci}
				continue
			}
			childOp, err := build(child, op, ci)
			if err != nil {
				return nil, err
			}
			t.ops = append(t.ops, childOp)
		}
		return op, nil
	}
	rootOp, err := build(root, nil, -1)
	if err != nil {
		return nil, err
	}
	t.ops = append(t.ops, rootOp)
	t.root = rootOp
	return t, nil
}

// Push feeds one raw stream element and returns the plan's final outputs.
// The returned slice is the root operator's own buffer, borrowed: it is
// valid until the next Push, PushBatch, Flush or Sweep on this tree, which
// overwrites it. Copy the slice (slices.Clone) to keep it longer; the
// tuples and punctuations in it are never overwritten, unless the tree
// lends its result tuples (Lend), as every tree the engine builds does.
// The tree reads e only during the call and copies a tuple it stores, so
// the caller may reuse the tuple's Values once Push returns.
func (t *Tree) Push(streamIdx int, e stream.Element) ([]stream.Element, error) {
	out, _, err := t.PushBatch(streamIdx, []stream.Element{e})
	return out, err
}

// PushBatch feeds a run of raw elements from one stream, exactly as if
// Push were called per element with the outputs concatenated. It returns
// the concatenated outputs, the number of elements fully processed, and
// the first error; on error the offender is elems[n] and the preceding
// elements' outputs are kept, so element-level error policies can record
// it and resume with elems[n+1:]. The returned slice is borrowed exactly
// as Push's is: valid until the next call into the tree.
func (t *Tree) PushBatch(streamIdx int, elems []stream.Element) ([]stream.Element, int, error) {
	out, n, err := t.pushBatch(streamIdx, t.root.join.takeOut(), nil, elems)
	t.root.join.outBuf = out
	return out, n, err
}

// Lend switches how Push and PushBatch build result tuples. Lent (on), a
// result tuple's Values live in a buffer the root reuses: like the
// returned slice they are valid until the next Push, PushBatch, Flush or
// Sweep, and a caller that keeps a tuple past that must copy its Values.
// Owned (off, the default), every result tuple has values of its own. The
// engine makes every tree it builds lend. Only the root lends: what a
// lower operator emits is consumed inside the tree. Punctuations are
// never lent. PushBatchEnds ignores the switch: it always builds results
// in the caller's buffer.
func (t *Tree) Lend(on bool) { t.root.join.lend = on }

// PushBatchEnds is PushBatch appending into caller-owned buffers while
// recording per-element output boundaries: after processing elems[i], out
// has length ends[base+i] where base is len(ends) at entry. The
// partitioned runtime uses the boundaries to slice one partition's outputs
// back into input-sequence order when merging partitions. On error the
// offender emits nothing and no ends entry is appended for it. Result
// tuples are carved out of vals, which is appended to and returned like
// out: their Values stay valid until the caller writes the returned vals
// again, which it empties for reuse with ResetValues.
func (t *Tree) PushBatchEnds(streamIdx int, out []stream.Element, ends []int, vals []stream.Value, elems []stream.Element) ([]stream.Element, []int, []stream.Value, int, error) {
	root := t.root.join
	lend, own := root.lend, root.outVals
	root.lend, root.outVals = true, vals
	defer func() { root.lend, root.outVals = lend, own }() // also after a panic
	out, n, err := t.pushBatch(streamIdx, out, &ends, elems)
	return out, ends, root.outVals, n, err
}

// ResetValues empties a buffer result tuples were carved out of for
// reuse: cleared, so it holds nothing, or nil once it has grown past
// maxOutVals. A lending root's own buffer and the one a PushBatchEnds
// caller keeps both go through it.
func ResetValues(vals []stream.Value) []stream.Value {
	if cap(vals) > maxOutVals {
		return nil
	}
	clear(vals)
	return vals[:0]
}

// pushBatch is the one batch body: it feeds elems one by one, appending
// the plan's final outputs to out and, when ends is non-nil, each
// element's output boundary to *ends.
func (t *Tree) pushBatch(streamIdx int, out []stream.Element, ends *[]int, elems []stream.Element) ([]stream.Element, int, error) {
	if streamIdx < 0 || streamIdx >= t.q.N() {
		return out, 0, fmt.Errorf("exec: stream %d out of range", streamIdx)
	}
	route := t.leafRoute[streamIdx]
	for i := range elems {
		var err error
		if out, err = t.feed(out, route.op, route.input, elems[i]); err != nil {
			return out, i, err
		}
		if ends != nil {
			*ends = append(*ends, len(out))
		}
	}
	return out, len(elems), nil
}

// feed pushes an element into an operator input and forwards the
// operator's outputs to its parent until the root emits, appending the
// root's outputs to out. A non-root operator emits into its own buffer,
// which is only read here, before anything calls into that operator
// again. On error out comes back cut to its length at entry.
func (t *Tree) feed(out []stream.Element, op *treeOp, input int, e stream.Element) ([]stream.Element, error) {
	if op.parent == nil {
		return op.join.pushInto(out, input, e)
	}
	mid, err := op.join.Push(input, e)
	mark := len(out)
	for i := 0; i < len(mid) && err == nil; i++ {
		out, err = t.feed(out, op.parent, op.inputIdx, mid[i])
	}
	if err != nil {
		clear(out[mark:])
		out = out[:mark]
	}
	return out, err
}

// drain runs step on every operator bottom-up — the root appending to the
// tree's output buffer, every other operator to its own — and forwards
// what the non-root operators emitted; it returns the root's outputs.
func (t *Tree) drain(step func(m *MJoin, out []stream.Element) []stream.Element) ([]stream.Element, error) {
	final := t.root.join.takeOut()
	for _, op := range t.ops {
		if op.parent == nil {
			final = step(op.join, final)
			continue
		}
		op.join.outBuf = step(op.join, op.join.takeOut())
		for _, o := range op.join.outBuf {
			var err error
			if final, err = t.feed(final, op.parent, op.inputIdx, o); err != nil {
				return nil, err
			}
		}
	}
	t.root.join.outBuf = final
	return final, nil
}

// Flush forces pending lazy purge rounds in every operator (bottom-up)
// and forwards any resulting output punctuations; it returns the root's
// outputs, borrowed as Push's are.
func (t *Tree) Flush() ([]stream.Element, error) {
	return t.drain((*MJoin).flushPendingInto)
}

// Sweep runs a full background clean-up pass over every operator and
// forwards any punctuations that became emittable. It returns the number
// of tuples removed across the tree plus the root's outputs (borrowed).
func (t *Tree) Sweep() (int, []stream.Element, error) {
	removed := 0
	out, err := t.drain(func(m *MJoin, out []stream.Element) []stream.Element {
		n, out := m.sweepInto(out)
		removed += n
		return out
	})
	if err != nil {
		return 0, nil, err
	}
	return removed, out, nil
}

// Operators returns the MJoin operators bottom-up (the root is last).
func (t *Tree) Operators() []*MJoin {
	out := make([]*MJoin, len(t.ops))
	for i, op := range t.ops {
		out[i] = op.join
	}
	return out
}

// Root returns the root operator.
func (t *Tree) Root() *MJoin { return t.root.join }

// StatsSnapshot returns deep-copied stats for every operator, bottom-up
// (same order as Operators). Like MJoin.StatsSnapshot it must be taken on
// the goroutine driving the tree or after quiescence; the engine Runtime
// serializes cross-goroutine snapshot requests through each shard's
// mailbox.
func (t *Tree) StatsSnapshot() []*Stats {
	out := make([]*Stats, len(t.ops))
	for i, op := range t.ops {
		out[i] = op.join.StatsSnapshot()
	}
	return out
}

// TotalState sums the stored tuples across every operator.
func (t *Tree) TotalState() int {
	total := 0
	for _, op := range t.ops {
		total += op.join.Stats().TotalState()
	}
	return total
}

// TotalPunctStore sums the stored punctuations across every operator.
func (t *Tree) TotalPunctStore() int {
	total := 0
	for _, op := range t.ops {
		total += op.join.Stats().TotalPunctStore()
	}
	return total
}

// MaxState sums the per-operator high-water marks.
func (t *Tree) MaxState() int {
	total := 0
	for _, op := range t.ops {
		total += op.join.Stats().MaxStateSize
	}
	return total
}

// OutputSchema is the root operator's output schema.
func (t *Tree) OutputSchema() *stream.Schema { return t.root.join.OutputSchema() }
