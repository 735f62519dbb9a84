package exec_test

// BenchmarkTiering measures the cold tier and the skew split: the
// long-state rows compare the steady-state probe over a large resident
// join state with the cold tier off (all rows hot) and on (the bulk
// frozen into compacted segments) — the acceptance bar is tiered ns/op
// within 5% of hot-only with the resident hot tier at least 2× smaller.
// The skew rows drive the Zipfian auction feed through a 2-replica
// partitioned tree with a soft state limit: the no-split row latches
// pressure and lets the hot replica grow, the split row force-splits the
// pressured replica the way the engine's watcher does and must hold
// every replica near the limit.

import (
	"fmt"
	"testing"

	"punctsafe/exec"
	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// longStateJoin builds the R ⋈ S probe harness: residentRows R tuples
// over fanout-sized key groups. R has an equality scheme on the join key,
// so the probe loop can punctuate R per key — which purges the just-probed
// S tuple (its only remaining use was joining future R) while leaving R's
// long-lived state untouched. The timed loop therefore measures the probe
// over R's tiers at a steady state size, not harness-side state growth.
func longStateJoin(b testing.TB, coldAfter uint64) *exec.MJoin {
	b.Helper()
	q := query.NewBuilder().
		AddStream(stream.MustSchema("R", intAttr("K"), intAttr("V"))).
		AddStream(stream.MustSchema("S", intAttr("K"), intAttr("W"))).
		JoinOn("R", "S", "K").
		MustBuild()
	schemes := stream.NewSchemeSet(stream.MustScheme("R", true, false))
	m, err := exec.NewMJoin(exec.Config{Query: q, Schemes: schemes, ColdAfter: coldAfter})
	if err != nil {
		b.Fatal(err)
	}
	const residentRows, keys = 32768, 4096
	for i := int64(0); i < residentRows; i++ {
		if _, err := m.Push(0, stream.TupleElement(stream.NewTuple(stream.Int(i%keys), stream.Int(i)))); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

func benchLongState(b *testing.B, coldAfter uint64) {
	m := longStateJoin(b, coldAfter)
	const keys = 4096
	puncts := make([]stream.Element, keys)
	for k := range puncts {
		puncts[k] = stream.PunctElement(stream.MustPunctuation(stream.Const(stream.Int(int64(k))), stream.Wildcard()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % keys
		el := stream.TupleElement(stream.NewTuple(stream.Int(int64(k)), stream.Int(int64(i))))
		if _, err := m.Push(1, el); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Push(0, puncts[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Resident tiers of the probed (R) state: the acceptance bar reads
	// hot-resident off these rows (tiered must be >= 2x lower).
	st := m.StatsSnapshot()
	b.ReportMetric(float64(st.StateSize[0]), "state-rows")
	b.ReportMetric(float64(st.StateSize[0]-st.ColdSize[0]), "hot-resident")
}

// benchSkew drives the skewed unpunctuated auction feed through a
// 2-replica partitioned tree under a soft state limit, optionally
// force-splitting the pressured replica (the engine watcher's policy,
// run deterministically inline).
func benchSkew(b *testing.B, split bool) {
	const softLimit = 800
	const maxSplits = 6
	q := workload.AuctionQuery()
	schemes := workload.AuctionSchemes()
	root := plan.Join(plan.Leaf(0), plan.Leaf(1))
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 400, MaxBidsPerItem: 6, OpenWindow: 4, Skew: 1.1, Seed: 17,
	})
	feed, err := workload.NewFeed(q, inputs)
	if err != nil {
		b.Fatal(err)
	}
	var peak, final, pressures, splits float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot := -1
		cfg := exec.Config{
			Query: q, Schemes: schemes, ColdAfter: 64, SoftStateLimit: softLimit,
			OnPressure: func(ev exec.PressureEvent) {
				pressures++
				hot = ev.Partition
			},
		}
		pt, err := exec.NewPartitionedTree(cfg, root, 2)
		if err != nil {
			b.Fatal(err)
		}
		done, n := 0, 0
		maxReplica := func() int {
			m := 0
			for p := 0; p < pt.Partitions(); p++ {
				if s := pt.Partition(p).TotalState(); s > m {
					m = s
				}
			}
			return m
		}
		if err := feed.Each(func(idx int, e stream.Element) error {
			if _, err := pt.Push(idx, e); err != nil {
				return err
			}
			if split && hot >= 0 && done < maxSplits {
				if _, _, err := pt.Split(hot); err == nil {
					done++
				}
				hot = -1
			}
			if n++; n%32 == 0 {
				if m := float64(maxReplica()); m > peak {
					peak = m
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if m := float64(maxReplica()); m > peak {
			peak = m
		}
		final = float64(maxReplica())
		splits += float64(done)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(len(inputs)), "elements/op")
	b.ReportMetric(float64(softLimit), "soft-limit")
	b.ReportMetric(final, "max-replica-final")
	b.ReportMetric(peak, "max-replica-peak")
	b.ReportMetric(pressures/n, "pressure-events/op")
	b.ReportMetric(splits/n, "splits/op")
}

func BenchmarkTiering(b *testing.B) {
	for _, mode := range []struct {
		name      string
		coldAfter uint64
	}{{"hot-only", 0}, {"tiered", 2048}} {
		b.Run(fmt.Sprintf("long-state/%s", mode.name), func(b *testing.B) {
			benchLongState(b, mode.coldAfter)
		})
	}
	b.Run("skew/no-split", func(b *testing.B) { benchSkew(b, false) })
	b.Run("skew/split", func(b *testing.B) { benchSkew(b, true) })
}
