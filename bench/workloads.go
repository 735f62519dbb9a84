package main

import (
	"fmt"
	"math/rand"

	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// spec describes one benchmark workload: the query, the generator that
// makes its feed from a seed, how it is driven, and the fixed rate of its
// paced phase. The rates are constants here (and quoted in the workloads'
// "why" lines of BENCHMARK.json); they are never derived at run time, so
// two commits are always paced identically.
type spec struct {
	name string
	why  string
	// server drives the feed through server.Server over a unix socket;
	// otherwise it goes through Runtime.SendBatch in process.
	server bool
	// rate is the paced phase's open-loop input rate, elements/s.
	rate int
	// perUnit is the mean number of feed elements one generator unit (an
	// item, a round, an epoch) produces; it turns a target element count
	// into a generator size.
	perUnit float64
	// partitions is engine.Options.Partitions for the workload's own runs.
	partitions int
	// params is recorded verbatim in the result file.
	params map[string]any
	query  func() (*query.CJQ, *stream.SchemeSet)
	gen    func(q *query.CJQ, schemes *stream.SchemeSet, seed int64, units int) []workload.Input
	// payload names, per stream, the non-join attribute that carries the
	// element's send index.
	payload func(sc *stream.Schema) int
}

func auctionQuery() (*query.CJQ, *stream.SchemeSet) {
	return workload.AuctionQuery(), workload.AuctionSchemes()
}

// firstAttr stamps attribute 0: sellerid on item, bidderid on bid.
func firstAttr(*stream.Schema) int { return 0 }

var specs = []spec{
	{
		name: "serve-auction",
		why: "Example 1 auction through server.Server on a unix socket (1 producer, 1 subscriber, 20ms durable checkpoints): " +
			"server, wire and runtime do the work, exec little; paced at 50000 elements/s",
		server:  true,
		rate:    50000,
		perUnit: 10.59,
		params: map[string]any{"generator": "workload.Auction", "max_bids_per_item": 8, "open_window": 64,
			"punctuate_items": true, "punctuate_close": true, "checkpoint_every_ms": 20, "slow": "block"},
		query: auctionQuery,
		gen: func(_ *query.CJQ, _ *stream.SchemeSet, seed int64, units int) []workload.Input {
			return workload.Auction(workload.AuctionConfig{Items: units, MaxBidsPerItem: 8, OpenWindow: 64,
				PunctuateItems: true, PunctuateClose: true, Seed: seed})
		},
		payload: firstAttr,
	},
	{
		name: "join-chain4",
		why: "4-way chain join, closed world, punctuations outnumber tuples 3:1 and every purge is a chained purge: " +
			"exec purge and punctuation store do the work, no sockets; paced at 100000 elements/s",
		rate:    100000,
		perUnit: 512,
		params: map[string]any{"generator": "workload.Closed", "topology": "chain", "k": 4, "schemes": "AllJoinAttrSchemes",
			"tuples_per_round": 32, "window": 64, "punct_fraction": 1, "punct_delay": 2},
		query: func() (*query.CJQ, *stream.SchemeSet) {
			q, err := workload.SyntheticQuery(workload.Chain, 4)
			if err != nil {
				panic(err) // k and topology are constants
			}
			return q, workload.AllJoinAttrSchemes(q)
		},
		gen: func(q *query.CJQ, schemes *stream.SchemeSet, seed int64, units int) []workload.Input {
			return workload.Closed(q, schemes, workload.ClosedConfig{Rounds: units, TuplesPerRound: 32, Window: 64,
				PunctFraction: 1, PunctDelay: 2, Seed: seed})
		},
		payload: func(sc *stream.Schema) int { return sc.Index("payload") },
	},
	{
		name: "join-watermark",
		why: "2 sensor streams 256 epochs out of order, rare ordered <= heartbeats: 1600 resident tuples, " +
			"probe-heavy, bulk range purges, the opposite use of exec state from join-chain4; paced at 100000 elements/s",
		rate:    100000,
		perUnit: 8.03,
		params: map[string]any{"generator": "bench sensorFeed (workload.Sensor shape)", "readings_per_epoch": 4,
			"disorder": 256, "heartbeat_every": 64},
		query: func() (*query.CJQ, *stream.SchemeSet) { return workload.SensorQuery(), workload.SensorSchemes() },
		gen: func(_ *query.CJQ, _ *stream.SchemeSet, seed int64, units int) []workload.Input {
			return sensorFeed(workload.SensorConfig{Epochs: units, ReadingsPerEpoch: 4, Disorder: 256,
				HeartbeatEvery: 64, Heartbeats: true, Seed: seed})
		},
		payload: func(*stream.Schema) int { return 1 }, // celsius, percent
	},
	{
		name: "part-skew-auction",
		why: "Zipf-skewed auction on 2 hash partitions in process: scatter, punctuation broadcast, ordered merge and replica skew, " +
			"the only workload that runs the partitioned runtime; paced at 200000 elements/s",
		rate:       200000,
		perUnit:    114,
		partitions: 2,
		params: map[string]any{"generator": "workload.Auction", "max_bids_per_item": 2, "open_window": 256, "skew": 0.2,
			"punctuate_items": true, "punctuate_close": true, "partitions": 2},
		query: auctionQuery,
		gen: func(_ *query.CJQ, _ *stream.SchemeSet, seed int64, units int) []workload.Input {
			return workload.Auction(workload.AuctionConfig{Items: units, MaxBidsPerItem: 2, OpenWindow: 256, Skew: 0.2,
				PunctuateItems: true, PunctuateClose: true, Seed: seed})
		},
		payload: firstAttr,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// feed is a generated input list in flat arrays, in global arrival
// order, so the senders index it without allocating while a phase is
// measured. Every tuple carries its own position in elems (its send
// index) in its stream's payload attribute.
type feed struct {
	q       *query.CJQ
	schemes *stream.SchemeSet
	schemas []*stream.Schema
	names   []string // stream name by stream index
	elems   []stream.Element
	sidx    []uint8 // stream index of each element
	tuples  int
	puncts  int
}

// runEnd returns the end of the run of same-stream elements that starts
// at i, capped at limit: the unit Runtime.SendBatch takes.
func (f *feed) runEnd(i, limit int) int {
	s := f.sidx[i]
	j := i + 1
	for j < limit && f.sidx[j] == s {
		j++
	}
	return j
}

// kindRunEnd is runEnd that also stops where tuples give way to
// punctuations or back, so the two kinds can be timed apart.
func (f *feed) kindRunEnd(i, limit int) int {
	s, p := f.sidx[i], f.elems[i].IsPunct()
	j := i + 1
	for j < limit && f.sidx[j] == s && f.elems[j].IsPunct() == p {
		j++
	}
	return j
}

// maxRun bounds one SendBatch hand-off, like the engine's own wire
// ingester does.
const maxRun = 128

// makeFeed generates the workload's feed for about n elements and stamps
// every tuple with its send index.
func makeFeed(sp *spec, seed int64, n int) *feed {
	q, schemes := sp.query()
	units := int(float64(n)/sp.perUnit + 0.5)
	if units < 1 {
		units = 1
	}
	inputs := sp.gen(q, schemes, seed, units)
	f := &feed{q: q, schemes: schemes, schemas: q.Streams(),
		elems: make([]stream.Element, len(inputs)), sidx: make([]uint8, len(inputs))}
	payload := make([]int, q.N())
	for i, sc := range f.schemas {
		f.names = append(f.names, sc.Name())
		payload[i] = sp.payload(sc)
	}
	for i, in := range inputs {
		s := q.StreamIndex(in.Stream)
		f.elems[i], f.sidx[i] = in.Elem, uint8(s)
		if in.Elem.IsPunct() {
			f.puncts++
			continue
		}
		f.tuples++
		vals := in.Elem.Tuple().Values // shares the element's backing array
		if vals[payload[s]].Kind() == stream.KindFloat {
			vals[payload[s]] = stream.Float(float64(i))
		} else {
			vals[payload[s]] = stream.Int(int64(i))
		}
	}
	return f
}

// sensorFeed generates exactly what workload.Sensor generates, in time
// linear in Epochs: workload.Sensor rescans every pending reading at
// every step, which is quadratic and unusable at 100k epochs. Readings
// are bucketed by emission step instead; the random draws and the
// emission order are the same.
func sensorFeed(cfg workload.SensorConfig) []workload.Input {
	rng := rand.New(rand.NewSource(cfg.Seed))
	lastStep := cfg.Epochs - 1 + cfg.Disorder
	buckets := make([][]workload.Input, lastStep+1)
	for e := 0; e < cfg.Epochs; e++ {
		for r := 0; r < cfg.ReadingsPerEpoch; r++ {
			delayT, delayH := 0, 0
			if cfg.Disorder > 0 {
				delayT = rng.Intn(cfg.Disorder + 1)
				delayH = rng.Intn(cfg.Disorder + 1)
			}
			temp := stream.NewTuple(stream.Int(int64(e)), stream.Float(15+10*rng.Float64()))
			humid := stream.NewTuple(stream.Int(int64(e)), stream.Float(30+40*rng.Float64()))
			buckets[e+delayT] = append(buckets[e+delayT], workload.Input{Stream: "temp", Elem: stream.TupleElement(temp)})
			buckets[e+delayH] = append(buckets[e+delayH], workload.Input{Stream: "humid", Elem: stream.TupleElement(humid)})
		}
	}
	heartbeats := func(out []workload.Input, bound int64) []workload.Input {
		p := stream.MustPunctuation(stream.Leq(stream.Int(bound)), stream.Wildcard())
		return append(out,
			workload.Input{Stream: "temp", Elem: stream.PunctElement(p)},
			workload.Input{Stream: "humid", Elem: stream.PunctElement(p)})
	}
	var out []workload.Input
	for step, b := range buckets {
		out = append(out, b...)
		if bound := int64(step - cfg.Disorder - 1); cfg.Heartbeats && step%cfg.HeartbeatEvery == 0 && bound >= 0 {
			out = heartbeats(out, bound)
		}
	}
	if cfg.Heartbeats {
		out = heartbeats(out, int64(cfg.Epochs-1))
	}
	return out
}
