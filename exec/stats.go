// Package exec is the runtime substrate the paper assumes: punctuation-
// aware, non-blocking join operators. It provides a symmetric MJoin
// operator (of which the binary join is the 2-input case) whose join
// states are purged with the chained purge strategy of §3.2.1 — in its
// generalized, multi-attribute form of §4.2 — driven by the purge-plan
// witnesses produced by the safety checker. It also implements the §5.1
// punctuation store (punctuation purging by counter-punctuations and by
// lifespans) and the §5.2 eager/lazy purge timing knob, and propagates
// punctuations across operators so that tree-shaped execution plans can
// purge their upper operators.
package exec

import "fmt"

// Stats is the measurement surface of one join operator: everything the
// paper's §5 cost/benefit discussion talks about is readable here.
type Stats struct {
	// TuplesIn counts tuples consumed, per input.
	TuplesIn []uint64
	// PunctsIn counts punctuations consumed, per input.
	PunctsIn []uint64
	// Results counts result tuples emitted.
	Results uint64
	// OutPuncts counts punctuations emitted on the output.
	OutPuncts uint64
	// TuplesPurged counts tuples removed from join states, per input.
	TuplesPurged []uint64
	// PunctsPurged counts punctuations removed from punctuation stores,
	// per input.
	PunctsPurged []uint64
	// StateSize is the current number of stored tuples, per input.
	StateSize []int
	// PunctStoreSize is the current number of stored punctuations, per input.
	PunctStoreSize []int
	// MaxStateSize is the high-water mark of the total stored tuple count.
	MaxStateSize int
	// MaxPunctStoreSize is the high-water mark of the total stored
	// punctuation count.
	MaxPunctStoreSize int
	// PurgeChecks counts tuple purgeability evaluations (work done by the
	// purge machinery).
	PurgeChecks uint64
	// PressureEvents counts SoftStateLimit crossings (forced eager-purge
	// rounds the pressure watermark triggered).
	PressureEvents uint64
}

func newStats(n int) *Stats {
	return &Stats{
		TuplesIn:       make([]uint64, n),
		PunctsIn:       make([]uint64, n),
		TuplesPurged:   make([]uint64, n),
		PunctsPurged:   make([]uint64, n),
		StateSize:      make([]int, n),
		PunctStoreSize: make([]int, n),
	}
}

// TotalState returns the current total stored tuple count.
func (s *Stats) TotalState() int {
	total := 0
	for _, v := range s.StateSize {
		total += v
	}
	return total
}

// TotalPunctStore returns the current total stored punctuation count.
func (s *Stats) TotalPunctStore() int {
	total := 0
	for _, v := range s.PunctStoreSize {
		total += v
	}
	return total
}

func (s *Stats) noteWatermarks() {
	if t := s.TotalState(); t > s.MaxStateSize {
		s.MaxStateSize = t
	}
	if t := s.TotalPunctStore(); t > s.MaxPunctStoreSize {
		s.MaxPunctStoreSize = t
	}
}

// Snapshot returns a deep copy of the stats. The copy is detached from
// the operator: it never changes after the call, so callers can hold it
// across further pushes or hand it to other goroutines. Taking the
// snapshot itself must happen on the goroutine driving the operator (or
// after it has quiesced); the engine's sharded Runtime routes snapshot
// requests through each shard's mailbox for exactly that reason.
func (s *Stats) Snapshot() *Stats {
	c := *s
	c.TuplesIn = append([]uint64(nil), s.TuplesIn...)
	c.PunctsIn = append([]uint64(nil), s.PunctsIn...)
	c.TuplesPurged = append([]uint64(nil), s.TuplesPurged...)
	c.PunctsPurged = append([]uint64(nil), s.PunctsPurged...)
	c.StateSize = append([]int(nil), s.StateSize...)
	c.PunctStoreSize = append([]int(nil), s.PunctStoreSize...)
	return &c
}

// Add accumulates o into s: counters and sizes sum, per-input slices add
// element-wise. The partitioned tree reports one aggregate Stats per
// operator position by summing the replicas'. Note the summed watermarks
// (MaxStateSize etc.) are the sum of per-partition peaks, which may exceed
// any instantaneous total; and under partitioned execution PunctsIn counts
// every broadcast copy, so it is P× the punctuations ingested.
func (s *Stats) Add(o *Stats) {
	addU := func(dst, src []uint64) {
		for i := range src {
			dst[i] += src[i]
		}
	}
	addI := func(dst, src []int) {
		for i := range src {
			dst[i] += src[i]
		}
	}
	addU(s.TuplesIn, o.TuplesIn)
	addU(s.PunctsIn, o.PunctsIn)
	addU(s.TuplesPurged, o.TuplesPurged)
	addU(s.PunctsPurged, o.PunctsPurged)
	addI(s.StateSize, o.StateSize)
	addI(s.PunctStoreSize, o.PunctStoreSize)
	s.Results += o.Results
	s.OutPuncts += o.OutPuncts
	s.MaxStateSize += o.MaxStateSize
	s.MaxPunctStoreSize += o.MaxPunctStoreSize
	s.PurgeChecks += o.PurgeChecks
	s.PressureEvents += o.PressureEvents
}

// String summarizes the stats on one line.
func (s *Stats) String() string {
	return fmt.Sprintf("state=%d (max %d) puncts=%d (max %d) results=%d purged=%v",
		s.TotalState(), s.MaxStateSize, s.TotalPunctStore(), s.MaxPunctStoreSize, s.Results, s.TuplesPurged)
}
