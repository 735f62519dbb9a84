package workload

import (
	"math/rand"

	"punctsafe/query"
	"punctsafe/stream"
)

// SensorConfig parameterizes the heartbeat/watermark scenario (the
// ordered-punctuation extension; cf. Srivastava & Widom's heartbeats,
// the paper's reference [11]): two sensor streams produce readings
// stamped with an epoch, arriving out of order within a bounded disorder
// window; the continuous query correlates readings of the same epoch.
// Periodically each source emits a heartbeat punctuation (epoch <= T),
// promising that every epoch at or below T is complete.
type SensorConfig struct {
	// Epochs is the number of logical epochs generated.
	Epochs int
	// ReadingsPerEpoch is the number of readings per stream per epoch.
	ReadingsPerEpoch int
	// Disorder is the maximum number of epochs a reading can arrive late.
	Disorder int
	// HeartbeatEvery emits a heartbeat after this many epochs (0 = every
	// epoch).
	HeartbeatEvery int
	// Heartbeats disables heartbeat emission when false (the unbounded
	// baseline).
	Heartbeats bool
	// Seed drives the deterministic generator.
	Seed int64
}

// SensorSchemas returns the two sensor stream schemas.
func SensorSchemas() (temp, humid *stream.Schema) {
	temp = stream.MustSchema("temp",
		stream.Attribute{Name: "epoch", Kind: stream.KindInt},
		stream.Attribute{Name: "celsius", Kind: stream.KindFloat})
	humid = stream.MustSchema("humid",
		stream.Attribute{Name: "epoch", Kind: stream.KindInt},
		stream.Attribute{Name: "percent", Kind: stream.KindFloat})
	return temp, humid
}

// SensorQuery joins the two sensor streams on epoch.
func SensorQuery() *query.CJQ {
	temp, humid := SensorSchemas()
	return query.NewBuilder().
		AddStream(temp).AddStream(humid).
		JoinOn("temp", "humid", "epoch").
		MustBuild()
}

// SensorSchemes returns the watermark scheme set: both streams carry
// ordered punctuations on epoch.
func SensorSchemes() *stream.SchemeSet {
	return stream.NewSchemeSet(
		stream.MustOrderedScheme("temp", []bool{true, false}, []bool{true, false}),
		stream.MustOrderedScheme("humid", []bool{true, false}, []bool{true, false}),
	)
}

// Sensor generates the out-of-order reading feed with heartbeats. The
// heartbeat bound trails the generation epoch by the disorder window, so
// the promise holds by construction: a reading for epoch e is emitted no
// later than generation step e+Disorder, and the heartbeat at step g
// covers epochs <= g-Disorder-1.
func Sensor(cfg SensorConfig) []Input {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 100
	}
	if cfg.ReadingsPerEpoch <= 0 {
		cfg.ReadingsPerEpoch = 2
	}
	if cfg.Disorder < 0 {
		cfg.Disorder = 0
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// buckets[step] holds the readings emitted at that step, in the order
	// they were generated: each is shuffled into the future by at most
	// Disorder steps.
	lastStep := cfg.Epochs - 1 + cfg.Disorder
	buckets := make([][]Input, lastStep+1)
	for e := 0; e < cfg.Epochs; e++ {
		for r := 0; r < cfg.ReadingsPerEpoch; r++ {
			delayT := 0
			delayH := 0
			if cfg.Disorder > 0 {
				delayT = rng.Intn(cfg.Disorder + 1)
				delayH = rng.Intn(cfg.Disorder + 1)
			}
			temp := stream.NewTuple(stream.Int(int64(e)), stream.Float(15+10*rng.Float64()))
			humid := stream.NewTuple(stream.Int(int64(e)), stream.Float(30+40*rng.Float64()))
			buckets[e+delayT] = append(buckets[e+delayT], Input{Stream: "temp", Elem: stream.TupleElement(temp)})
			buckets[e+delayH] = append(buckets[e+delayH], Input{Stream: "humid", Elem: stream.TupleElement(humid)})
		}
	}

	heartbeat := func(bound int64) stream.Punctuation {
		return stream.MustPunctuation(stream.Leq(stream.Int(bound)), stream.Wildcard())
	}

	var out []Input
	for step, b := range buckets {
		out = append(out, b...)
		if cfg.Heartbeats && step%cfg.HeartbeatEvery == 0 {
			bound := int64(step - cfg.Disorder - 1)
			if bound >= 0 {
				out = append(out,
					Input{Stream: "temp", Elem: stream.PunctElement(heartbeat(bound))},
					Input{Stream: "humid", Elem: stream.PunctElement(heartbeat(bound))},
				)
			}
		}
	}
	if cfg.Heartbeats {
		// Final heartbeats close every epoch.
		out = append(out,
			Input{Stream: "temp", Elem: stream.PunctElement(heartbeat(int64(cfg.Epochs - 1)))},
			Input{Stream: "humid", Elem: stream.PunctElement(heartbeat(int64(cfg.Epochs - 1)))},
		)
	}
	return out
}
