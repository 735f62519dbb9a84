package exec

import (
	"fmt"
	"strings"
	"testing"

	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// §5.1 punctuation purging on feeds that keep their promises: it must be
// invisible in what the operators emit, and it must keep every
// punctuation store bounded, on the flat MJoin and on tree plans alike.

// boundTreeShapes are the 4-way tree plans the §5.1 tests run besides the
// flat MJoin. A topology that cannot join a shape's children without a
// cross product skips it (Validate refuses it).
var boundTreeShapes = []*plan.Node{
	plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Join(plan.Leaf(2), plan.Leaf(3))),
	plan.Join(plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2)), plan.Leaf(3)),
	plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(2)), plan.Leaf(1), plan.Leaf(3)),
}

var boundTopologies = []workload.Topology{workload.Chain, workload.Star, workload.Cycle, workload.Clique}

// flatPlan is the one-operator plan over every stream of q.
func flatPlan(q *query.CJQ) *plan.Node {
	leaves := make([]*plan.Node, q.N())
	for i := range leaves {
		leaves[i] = plan.Leaf(i)
	}
	return plan.Join(leaves...)
}

// boundRun drives a feed through a plan tree: every Push, then Flush, then
// Sweep. It returns the ordered emission stream, one line per call, and
// the tree.
func boundRun(t *testing.T, cfg Config, root *plan.Node, inputs []workload.Input) (string, *Tree) {
	t.Helper()
	tree, err := NewTree(cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := workload.NewFeed(cfg.Query, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	emit := func(tag string, outs []stream.Element) {
		b.WriteString(tag)
		for _, o := range outs {
			b.WriteString(" " + o.String())
		}
		b.WriteByte('\n')
	}
	if err := feed.Each(func(i int, e stream.Element) error {
		outs, err := tree.Push(i, e)
		emit("push", outs)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	outs, err := tree.Flush()
	if err != nil {
		t.Fatal(err)
	}
	emit("flush", outs)
	_, outs, err = tree.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	emit("sweep", outs)
	return b.String(), tree
}

// peakPunctStore sums the operators' punctuation-store high-water marks.
func peakPunctStore(tree *Tree) int {
	peak := 0
	for _, m := range tree.Operators() {
		peak += m.Stats().MaxPunctStoreSize
	}
	return peak
}

type boundCase struct {
	name   string
	cfg    Config // Query, Schemes and the purge timing
	root   *plan.Node
	inputs func(rounds int) []workload.Input
	// drains is whether §5.1 must have emptied every punctuation store
	// once the feed is over and a Sweep has run (watermarks compact
	// themselves instead).
	drains bool
}

// closedCase is a closed-world synthetic feed over q under set.
func closedCase(name string, q *query.CJQ, set *stream.SchemeSet, root *plan.Node, batch int, seed int64) boundCase {
	return boundCase{
		name:   name,
		cfg:    Config{Query: q, Schemes: set, PurgeBatch: batch, EnforcePromises: true},
		root:   root,
		drains: true,
		inputs: func(rounds int) []workload.Input {
			return workload.Closed(q, set, workload.ClosedConfig{
				Rounds: rounds, TuplesPerRound: 6, Window: 3, PunctFraction: 1, PunctDelay: 1, Seed: seed,
			})
		},
	}
}

// treeCases are the Closed 4-way rows over each topology: the flat MJoin
// when withFlat is set, and up to maxTrees of the tree shapes the topology
// can join.
func treeCases(t *testing.T, withFlat bool, maxTrees int) []boundCase {
	var cases []boundCase
	for _, topo := range boundTopologies {
		q, err := workload.SyntheticQuery(topo, 4)
		if err != nil {
			t.Fatal(err)
		}
		set := workload.AllJoinAttrSchemes(q)
		var roots []*plan.Node
		if withFlat {
			roots = append(roots, flatPlan(q))
		}
		trees := 0
		for _, shape := range boundTreeShapes {
			if shape.Validate(q) == nil && trees < maxTrees {
				roots = append(roots, shape)
				trees++
			}
		}
		for _, root := range roots {
			for _, batch := range []int{1, 16} {
				cases = append(cases, closedCase(fmt.Sprintf("%s4/%s/batch%d", topo, root.Render(q), batch), q, set, root, batch, 4001))
			}
		}
	}
	return cases
}

// TestPunctPurgeInvisible: on a feed that keeps its promises, §5.1 only
// ever drops punctuations that nothing will read again, so the ordered
// emission stream — result tuples and output punctuations, call by call —
// is identical with PurgePunctuations on and off. In particular §5.1 must
// not retire a punctuation before its output punctuation went out. And
// with §5.1 on, every punctuation store is empty once the feed is over
// and a Sweep has run. (A feed that breaks its promises is another
// matter: there §5.1 may legitimately change the outputs.)
func TestPunctPurgeInvisible(t *testing.T) {
	var cases []boundCase
	for _, topo := range boundTopologies {
		for k := 2; k <= 5; k++ {
			q, err := workload.SyntheticQuery(topo, k)
			if err != nil {
				t.Fatal(err)
			}
			all := workload.AllJoinAttrSchemes(q)
			for si, set := range []*stream.SchemeSet{all, workload.MinimalSchemes(q, all)} {
				for _, batch := range []int{1, 16} {
					name := fmt.Sprintf("%s%d/schemes%d/batch%d", topo, k, si, batch)
					cases = append(cases, closedCase(name, q, set, flatPlan(q), batch, int64(100*k+si)))
				}
			}
		}
	}
	cases = append(cases, treeCases(t, false, len(boundTreeShapes))...)
	scenario := func(name string, q *query.CJQ, set *stream.SchemeSet, inputs []workload.Input) {
		for _, batch := range []int{1, 16} {
			cases = append(cases, boundCase{
				name:   fmt.Sprintf("%s/batch%d", name, batch),
				cfg:    Config{Query: q, Schemes: set, PurgeBatch: batch, EnforcePromises: true},
				root:   flatPlan(q),
				inputs: func(int) []workload.Input { return inputs },
				drains: name != "sensor",
			})
		}
	}
	scenario("auction", workload.AuctionQuery(), workload.AuctionSchemes(), workload.Auction(workload.AuctionConfig{
		Items: 200, MaxBidsPerItem: 5, OpenWindow: 6, PunctuateItems: true, PunctuateClose: true, Seed: 41,
	}))
	scenario("netmon", workload.NetMonQuery(), workload.NetMonSchemes(), workload.NetMon(workload.NetMonConfig{
		Flows: 200, MaxPktsPerFlow: 6, OpenWindow: 5, PunctuateFlowEnd: true, PunctuateConn: true, Seed: 42,
	}))
	scenario("sensor", workload.SensorQuery(), workload.SensorSchemes(), workload.Sensor(workload.SensorConfig{
		Epochs: 200, ReadingsPerEpoch: 3, Disorder: 4, HeartbeatEvery: 2, Heartbeats: true, Seed: 43,
	}))

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := tc.inputs(24)
			off, _ := boundRun(t, tc.cfg, tc.root, inputs)
			cfg := tc.cfg
			cfg.PurgePunctuations = true
			on, tree := boundRun(t, cfg, tc.root, inputs)
			if on != off {
				offLines, onLines := strings.Split(off, "\n"), strings.Split(on, "\n")
				for i := range offLines {
					if i >= len(onLines) || onLines[i] != offLines[i] {
						t.Fatalf("emissions differ with §5.1 on, first at call %d:\noff: %s\non:  %s", i, offLines[i], onLines[i])
					}
				}
			}
			if left := tree.TotalPunctStore(); tc.drains && left != 0 {
				t.Fatalf("%d punctuations stored after the final Sweep, want 0", left)
			}
		})
	}
}

// TestPunctStoreBounded is the growth test of the §5.1 store: each Closed
// 4-way row runs at N and 8N rounds, flat and on two tree shapes, eager
// and batched. Join state is bounded on these feeds, and every stored
// punctuation's values close after one round, so the store's peak must
// not grow with the feed: the peak at 8N rounds may exceed the peak at N
// by at most a quarter (the feed's own round-to-round variation; a
// leaking store grows about eightfold). Once the feed ends and a Sweep has
// run, every store must be empty.
func TestPunctStoreBounded(t *testing.T) {
	const n = 64
	for _, tc := range treeCases(t, true, 2) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.PurgePunctuations = true
			var peaks [2]int
			for i, rounds := range []int{n, 8 * n} {
				_, tree := boundRun(t, cfg, tc.root, tc.inputs(rounds))
				peaks[i] = peakPunctStore(tree)
				if left := tree.TotalPunctStore(); left != 0 {
					t.Errorf("%d rounds: %d punctuations stored after the final Sweep, want 0", rounds, left)
				}
			}
			if peaks[1] > peaks[0]+peaks[0]/4 {
				t.Fatalf("peak punctuation store %d at %d rounds, %d at %d: grows with the feed", peaks[0], n, peaks[1], 8*n)
			}
		})
	}
}
