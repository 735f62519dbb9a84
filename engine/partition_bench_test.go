package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"punctsafe/exec"
	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
)

// benchEnvOnce prints the host's parallelism next to go test's own
// goos/goarch/cpu header, in the same `key: value` shape, so the
// punctbench parser records it in the report env: the engine rows are
// wall-clock and only meaningful relative to the core count they ran on.
var benchEnvOnce sync.Once

func printBenchEnv() {
	benchEnvOnce.Do(func() {
		fmt.Printf("gomaxprocs: %d\n", runtime.GOMAXPROCS(0))
		fmt.Printf("numcpu: %d\n", runtime.NumCPU())
	})
}

// The partitioned-ingest scaling benchmark (ISSUE 5 acceptance): a 3-way
// star join on one key with heavy per-key fan-out (every watch probes
// bids × items for its key), so join work dominates routing cost.
//
// Two row groups:
//
//   - critical-path/*: deterministic span measurement of the partitioned
//     design. The feed is routed exactly as the engine's router routes it
//     (hash scatter for tuples, broadcast for punctuations), then ns/op
//     times the serial router pass plus ONE replica's full workload. The
//     replicas are hash-symmetric and run concurrently in the engine, so
//     router + slowest replica IS the parallel wall time on a host with
//     ≥ P cores — measured here independently of how many cores the
//     benchmark host actually has. The p1 row runs the same machinery
//     with one replica; its gap to the plain row is the routing overhead
//     and must stay within noise.
//
//   - engine/*: wall-clock of the real sharded runtime with the worker
//     pool. On a multi-core host these converge toward the critical-path
//     rows; on a single-core host they serialize and show the barrier
//     overhead instead of the scaling.
const (
	pbKeys  = 64 // distinct join keys
	pbBids  = 32 // bids per key
	pbWatch = 32 // watches per key
	pbBlock = 16 // keys per punctuation round
)

// partitionQuery is item ⋈ bid ⋈ watch equi-joined on itemid — a chain on
// one attribute, so plan.FindCoPartition accepts it.
func partitionQuery(tb testing.TB) *query.CJQ {
	tb.Helper()
	intAttr := func(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }
	q, err := query.NewBuilder().
		AddStream(stream.MustSchema("item", intAttr("itemid"), intAttr("reserve"))).
		AddStream(stream.MustSchema("bid", intAttr("itemid"), intAttr("price"))).
		AddStream(stream.MustSchema("watch", intAttr("itemid"), intAttr("uid"))).
		Join("item.itemid", "bid.itemid").
		Join("bid.itemid", "watch.itemid").
		Build()
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

func partitionSchemes() *stream.SchemeSet {
	return stream.NewSchemeSet(
		stream.MustScheme("item", true, false),
		stream.MustScheme("bid", true, false),
		stream.MustScheme("watch", true, false),
	)
}

func newPartitionBenchDSMS(tb testing.TB, partitions int) (*DSMS, *Registered) {
	tb.Helper()
	d := New()
	for _, s := range partitionSchemes().All() {
		d.RegisterScheme(s)
	}
	reg, err := d.Register("q0", partitionQuery(tb), Options{Partitions: partitions})
	if err != nil {
		tb.Fatal(err)
	}
	if partitions >= 1 && reg.Part == nil {
		tb.Fatalf("query fell back to single-tree execution: %s", reg.PartitionReason)
	}
	return d, reg
}

type benchRun struct {
	stream string
	elems  []stream.Element
}

// partitionFeed builds the workload as contiguous same-stream runs: per
// round of pbBlock keys, all items, then all bids, then all watches (each
// watch completes pbBids results per probe), then one closing punctuation
// per key per stream.
func partitionFeed() []benchRun {
	var runs []benchRun
	keyPunct := func(k int64) stream.Element {
		return stream.PunctElement(stream.MustPunctuation(stream.Const(stream.Int(k)), stream.Wildcard()))
	}
	for base := 0; base < pbKeys; base += pbBlock {
		items := benchRun{stream: "item"}
		bids := benchRun{stream: "bid"}
		watches := benchRun{stream: "watch"}
		for k := base; k < base+pbBlock; k++ {
			items.elems = append(items.elems, stream.TupleElement(stream.NewTuple(
				stream.Int(int64(k)), stream.Int(100))))
			for i := 0; i < pbBids; i++ {
				bids.elems = append(bids.elems, stream.TupleElement(stream.NewTuple(
					stream.Int(int64(k)), stream.Int(int64(i)))))
			}
			for i := 0; i < pbWatch; i++ {
				watches.elems = append(watches.elems, stream.TupleElement(stream.NewTuple(
					stream.Int(int64(k)), stream.Int(int64(i)))))
			}
		}
		runs = append(runs, items, bids, watches)
		for _, s := range []string{"item", "bid", "watch"} {
			puncts := benchRun{stream: s}
			for k := base; k < base+pbBlock; k++ {
				puncts.elems = append(puncts.elems, keyPunct(int64(k)))
			}
			runs = append(runs, puncts)
		}
	}
	return runs
}

const pbResults = pbKeys * pbBids * pbWatch

// partitionSegment is one routed chunk of a replica's input sequence.
type partitionSegment struct {
	input int
	elems []stream.Element
}

// routeFeed performs the router's serial work: hash tuples to their
// replica, broadcast punctuations to all, preserving per-replica order.
func routeFeed(pt *exec.PartitionedTree, runs []benchRun, inputOf map[string]int, seqs [][]partitionSegment) [][]partitionSegment {
	p := pt.Partitions()
	for i := range seqs {
		seqs[i] = seqs[i][:0]
	}
	for _, r := range runs {
		input := inputOf[r.stream]
		if r.elems[0].IsPunct() {
			for i := 0; i < p; i++ {
				seqs[i] = append(seqs[i], partitionSegment{input, r.elems})
			}
			continue
		}
		chunks := make([][]stream.Element, p)
		for _, e := range r.elems {
			d := pt.PartitionOf(input, e.Tuple())
			chunks[d] = append(chunks[d], e)
		}
		for i := 0; i < p; i++ {
			if len(chunks[i]) > 0 {
				seqs[i] = append(seqs[i], partitionSegment{input, chunks[i]})
			}
		}
	}
	return seqs
}

// driveReplica pushes one replica's routed sequence and returns its result
// count plus the reusable output buffers.
func driveReplica(tb testing.TB, pt *exec.PartitionedTree, p int, segs []partitionSegment, out []stream.Element, ends []int, vals []stream.Value) (int, []stream.Element, []int, []stream.Value) {
	results := 0
	for _, seg := range segs {
		var err error
		out, ends, vals, _, err = pt.PushPartitionEnds(p, seg.input, out[:0], ends[:0], vals[:0], seg.elems)
		if err != nil {
			tb.Fatal(err)
		}
		for _, e := range out {
			if !e.IsPunct() {
				results++
			}
		}
	}
	return results, out, ends, vals
}

// BenchmarkPartitionedIngest: the acceptance bar reads off the
// critical-path rows — p4 ≥ 2.5× the p1 throughput, p1 within 5% of
// plain — with the engine rows recording the live runtime alongside.
func BenchmarkPartitionedIngest(b *testing.B) {
	printBenchEnv()
	runs := partitionFeed()
	elements := 0
	for _, r := range runs {
		elements += len(r.elems)
	}
	q := partitionQuery(b)
	schemes := partitionSchemes()
	inputOf := make(map[string]int)
	for i := 0; i < q.N(); i++ {
		inputOf[q.Stream(i).Name()] = i
	}
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	cfg := exec.Config{Query: q, Schemes: schemes}

	b.Run("critical-path/plain", func(b *testing.B) {
		var out []stream.Element
		var ends []int
		var vals []stream.Value
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tree, err := exec.NewTree(cfg, root)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			results := 0
			for _, r := range runs {
				input := inputOf[r.stream]
				var err error
				out, ends, vals, _, err = tree.PushBatchEnds(input, out[:0], ends[:0], vals[:0], r.elems)
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range out {
					if !e.IsPunct() {
						results++
					}
				}
			}
			b.StopTimer()
			if results != pbResults {
				b.Fatalf("results = %d, want %d", results, pbResults)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(elements), "elements/op")
	})

	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("critical-path/p%d", p), func(b *testing.B) {
			seqs := make([][]partitionSegment, p)
			var out []stream.Element
			var ends []int
			var vals []stream.Value
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pt, err := exec.NewPartitionedTree(cfg, root, p)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				// Timed span: the router pass plus one replica (the
				// replicas run concurrently in the engine).
				seqs = routeFeed(pt, runs, inputOf, seqs)
				var results int
				results, out, ends, vals = driveReplica(b, pt, 0, seqs[0], out, ends, vals)
				b.StopTimer()
				for rp := 1; rp < p; rp++ {
					var n int
					n, out, ends, vals = driveReplica(b, pt, rp, seqs[rp], out, ends, vals)
					results += n
				}
				if results != pbResults {
					b.Fatalf("p=%d results = %d, want %d", p, results, pbResults)
				}
				if pt.TotalState() != 0 {
					b.Fatalf("p=%d state should drain, has %d tuples", p, pt.TotalState())
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(elements), "elements/op")
		})
	}

	for _, row := range []struct {
		name       string
		partitions int
	}{
		{"engine/plain", 0},
		{"engine/p1", 1},
		{"engine/p2", 2},
		{"engine/p4", 4},
		{"engine/p8", 8},
	} {
		b.Run(row.name, func(b *testing.B) {
			// Wall-clock rows with more replicas than cores would just
			// measure scheduler thrash; the critical-path rows above carry
			// the deterministic scaling number on any host.
			if row.partitions > runtime.NumCPU() {
				b.Skipf("host has %d CPUs (< %d partitions); wall-clock row would serialize — see critical-path/p%d",
					runtime.NumCPU(), row.partitions, row.partitions)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, reg := newPartitionBenchDSMS(b, row.partitions)
				b.StartTimer()
				rt := d.RunSharded(RuntimeOptions{Buffer: 256})
				for _, r := range runs {
					if err := rt.SendBatch(r.stream, r.elems); err != nil {
						b.Fatal(err)
					}
				}
				rt.Close()
				if err := rt.Wait(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if len(reg.Results) != pbResults {
					b.Fatalf("results = %d, want %d", len(reg.Results), pbResults)
				}
				if reg.TotalState() != 0 {
					b.Fatalf("state should drain, has %d tuples", reg.TotalState())
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(elements), "elements/op")
		})
	}
}
