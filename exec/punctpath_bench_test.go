package exec_test

import (
	"runtime"
	"testing"
	"time"

	"punctsafe/exec"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// BenchmarkPunctPath is the in-repo twin of the benchmark module's
// exec.purge.punct_ns_per_elem row: the join-chain4 shape (4-way chain,
// one simple scheme per join attribute, closed feed, three punctuations
// per tuple) replayed through MJoin.PushBatch in same-stream same-kind
// runs, with the punctuation runs timed apart from the tuple runs. One
// untimed replay first counts the allocations of the punctuation runs.
//
//	go test ./exec/ -run '^$' -bench PunctPath -benchmem
func BenchmarkPunctPath(b *testing.B) {
	q, err := workload.SyntheticQuery(workload.Chain, 4)
	if err != nil {
		b.Fatal(err)
	}
	schemes := workload.AllJoinAttrSchemes(q)
	benchPunctPath(b, q, schemes, workload.Closed(q, schemes, workload.ClosedConfig{
		Rounds: 40, TuplesPerRound: 32, Window: 64, PunctFraction: 1, PunctDelay: 2, Seed: 5,
	}))
}

// BenchmarkWatermarkRound is the same replay over the join-watermark
// shape: two sensor streams 256 epochs out of order, 4 readings per epoch,
// an ordered <= heartbeat per stream every 64 epochs. ns/punct is one
// heartbeat's purge round (~256 tuples scanned out, checked and removed,
// a compaction every few rounds); ns/tuple is a probe into, and an insert
// behind, ~1600 resident tuples whose columns have compacted many times.
//
//	go test ./exec/ -run '^$' -bench WatermarkRound -benchmem
func BenchmarkWatermarkRound(b *testing.B) {
	benchPunctPath(b, workload.SensorQuery(), workload.SensorSchemes(), workload.Sensor(workload.SensorConfig{
		Epochs: 4000, ReadingsPerEpoch: 4, Disorder: 256, HeartbeatEvery: 64, Heartbeats: true, Seed: 5,
	}))
}

// BenchmarkProbeCompacted times the probe alone on a state that has
// compacted (compactedWindowJoin): each op finds the two R rows of its key
// through a renumbered index bucket and emits two results.
//
//	go test ./exec/ -run '^$' -bench ProbeCompacted -benchmem
func BenchmarkProbeCompacted(b *testing.B) {
	wj, probes := compactedWindowJoin(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wj.Push(1, probes[i%len(probes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPunctPath replays a feed that drains its own state, in the
// configuration the benchmark module runs.
func benchPunctPath(b *testing.B, q *query.CJQ, schemes *stream.SchemeSet, inputs []workload.Input) {
	// Cut the feed into runs PushBatch can take: one stream, one kind.
	type run struct {
		input int
		punct bool
		elems []stream.Element
	}
	var runs []run
	puncts := 0
	for _, in := range inputs {
		s, p := q.StreamIndex(in.Stream), in.Elem.IsPunct()
		if p {
			puncts++
		}
		if n := len(runs); n == 0 || runs[n-1].input != s || runs[n-1].punct != p {
			runs = append(runs, run{input: s, punct: p})
		}
		r := &runs[len(runs)-1]
		r.elems = append(r.elems, in.Elem)
	}
	replay := func(around func(punct bool, push func())) {
		m, err := exec.NewMJoin(exec.Config{Query: q, Schemes: schemes, PurgePunctuations: true, EnforcePromises: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			around(r.punct, func() {
				if _, _, err := m.PushBatch(r.input, r.elems); err != nil {
					b.Fatal(err)
				}
			})
		}
		if left := m.StatsSnapshot().TotalState(); left != 0 {
			b.Fatalf("the feed left %d tuples", left)
		}
	}

	var ms runtime.MemStats
	var mallocs, bytes uint64
	replay(func(punct bool, push func()) {
		if !punct {
			push()
			return
		}
		runtime.ReadMemStats(&ms)
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		push()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		bytes += ms.TotalAlloc - b0
	})

	var punctTime, tupleTime time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(func(punct bool, push func()) {
			t0 := time.Now()
			push()
			if d := time.Since(t0); punct {
				punctTime += d
			} else {
				tupleTime += d
			}
		})
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(punctTime.Nanoseconds())/n/float64(puncts), "ns/punct")
	b.ReportMetric(float64(tupleTime.Nanoseconds())/n/float64(len(inputs)-puncts), "ns/tuple")
	b.ReportMetric(float64(mallocs)/float64(puncts), "allocs/punct")
	b.ReportMetric(float64(bytes)/float64(puncts), "B/punct")
}
