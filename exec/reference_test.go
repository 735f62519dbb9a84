package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// referenceJoin computes the full multi-way join of finite tuple sets by
// brute force: every combination of one tuple per stream is tested
// against every predicate. It is the ground truth the streaming operator
// must reproduce on finite inputs.
func referenceJoin(q *query.CJQ, tuples [][]stream.Tuple) []string {
	var results []string
	bound := make([]stream.Tuple, q.N())
	var rec func(i int)
	rec = func(i int) {
		if i == q.N() {
			var b strings.Builder
			for _, t := range bound {
				b.WriteString(t.String())
				b.WriteByte('|')
			}
			results = append(results, b.String())
			return
		}
		for _, t := range tuples[i] {
			ok := true
			for _, p := range q.Predicates() {
				if p.Right == i && p.Left < i {
					if !t.Values[p.RightAttr].Equal(bound[p.Left].Values[p.LeftAttr]) {
						ok = false
						break
					}
				}
				if p.Left == i && p.Right < i {
					if !t.Values[p.LeftAttr].Equal(bound[p.Right].Values[p.RightAttr]) {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			bound[i] = t
			rec(i + 1)
		}
	}
	rec(0)
	sort.Strings(results)
	return results
}

// renderStreamed renders a streamed result tuple in the reference's
// format (per-stream segments in stream order).
func renderStreamed(q *query.CJQ, t stream.Tuple) string {
	var b strings.Builder
	off := 0
	for i := 0; i < q.N(); i++ {
		n := q.Stream(i).Arity()
		seg := stream.NewTuple(t.Values[off : off+n]...)
		b.WriteString(seg.String())
		b.WriteByte('|')
		off += n
	}
	return b.String()
}

// TestMJoinMatchesBruteForce: on random topologies and random finite
// tuple sets (no punctuations), the streamed join must emit exactly the
// brute-force join, regardless of arrival interleaving.
func TestMJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 120; trial++ {
		topo := []workload.Topology{workload.Chain, workload.Cycle, workload.Star, workload.Clique}[rng.Intn(4)]
		k := 2 + rng.Intn(3)
		q, err := workload.SyntheticQuery(topo, k)
		if err != nil {
			t.Fatal(err)
		}
		// Random finite tuple sets with small value domains so joins occur.
		tuples := make([][]stream.Tuple, q.N())
		type arrival struct {
			input int
			t     stream.Tuple
		}
		var arrivals []arrival
		for i := 0; i < q.N(); i++ {
			n := 1 + rng.Intn(6)
			for c := 0; c < n; c++ {
				vals := make([]stream.Value, q.Stream(i).Arity())
				for a := range vals {
					vals[a] = stream.Int(int64(rng.Intn(3)))
				}
				tu := stream.NewTuple(vals...)
				tuples[i] = append(tuples[i], tu)
				arrivals = append(arrivals, arrival{input: i, t: tu})
			}
		}
		rng.Shuffle(len(arrivals), func(a, b int) {
			arrivals[a], arrivals[b] = arrivals[b], arrivals[a]
		})

		want := referenceJoin(q, tuples)
		m, err := NewMJoin(Config{Query: q, Schemes: stream.NewSchemeSet()})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ar := range arrivals {
			outs, err := m.Push(ar.input, stream.TupleElement(ar.t))
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				got = append(got, renderStreamed(q, o.Tuple()))
			}
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%s k=%d): streamed %d results, brute force %d",
				trial, topo, k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %s, want %s", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMJoinMatchesBruteForceWithPurging: same differential, but with a
// closed punctuated feed — purging must not change the answer even
// against the brute-force ground truth computed from all tuples.
func TestMJoinMatchesBruteForceWithPurging(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 60; trial++ {
		topo := []workload.Topology{workload.Chain, workload.Cycle, workload.Star}[rng.Intn(3)]
		k := 2 + rng.Intn(2)
		q, err := workload.SyntheticQuery(topo, k)
		if err != nil {
			t.Fatal(err)
		}
		schemes := workload.AllJoinAttrSchemes(q)
		inputs := workload.Closed(q, schemes, workload.ClosedConfig{
			Rounds: 3, TuplesPerRound: 3, Window: 2, PunctFraction: 1, Seed: rng.Int63(),
		})
		tuples := make([][]stream.Tuple, q.N())
		m, err := NewMJoin(Config{Query: q, Schemes: schemes})
		if err != nil {
			t.Fatal(err)
		}
		feed, _ := workload.NewFeed(q, inputs)
		var got []string
		if err := feed.Each(func(i int, e stream.Element) error {
			if !e.IsPunct() {
				tuples[i] = append(tuples[i], e.Tuple())
			}
			outs, err := m.Push(i, e)
			for _, o := range outs {
				if !o.IsPunct() {
					got = append(got, renderStreamed(q, o.Tuple()))
				}
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		want := referenceJoin(q, tuples)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%s k=%d): purged streamed join diverged from brute force (%d vs %d results)",
				trial, topo, k, len(got), len(want))
		}
		if m.Stats().TotalState() != 0 {
			t.Fatalf("trial %d: closed feed should drain", trial)
		}
	}
}
