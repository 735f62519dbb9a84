package exec

import "punctsafe/stream"

// State-pressure degradation: StateLimit is the hard back-stop that fails
// the query once the bounded-memory precondition (enough punctuations,
// honored promises) has demonstrably broken. SoftStateLimit is the
// graceful layer below it: crossing the watermark forces an eager purge
// round — pending lazy punctuations are applied at once and a full
// background clean-up pass runs — and reports a PressureEvent, giving the
// application a chance to shed load or repair its punctuation feed before
// the hard limit trips.

// PressureEvent describes one soft-watermark crossing.
type PressureEvent struct {
	// Operator identifies the pressured operator (its String form).
	Operator string
	// State is the stored-tuple count that crossed the watermark;
	// Relieved is the count after the forced purge round.
	State, Relieved int
	// SoftLimit and HardLimit echo the operator's configured watermarks
	// (HardLimit is 0 when no hard StateLimit is set).
	SoftLimit, HardLimit int
	// Partition identifies which replica of a partitioned query fired the
	// event (-1 on the single-tree path).
	Partition int
}

// relievePressure runs the soft-watermark check after an element has been
// processed. One event fires per excursion above the watermark: the flag
// re-arms only once state falls back below SoftStateLimit, so a feed that
// stays pressured does not pay a full sweep per element.
func (m *MJoin) relievePressure(out []stream.Element) []stream.Element {
	total := m.stats.TotalState()
	if total < m.cfg.SoftStateLimit {
		m.pressured = false
		return out
	}
	if m.pressured {
		return out
	}
	m.pressured = true
	m.stats.PressureEvents++
	out = m.flushPendingInto(out)
	if m.stats.TotalState() >= m.cfg.SoftStateLimit {
		_, out = m.sweepInto(out)
	}
	if m.cfg.OnPressure != nil {
		m.cfg.OnPressure(PressureEvent{
			Operator:  m.String(),
			State:     total,
			Relieved:  m.stats.TotalState(),
			SoftLimit: m.cfg.SoftStateLimit,
			HardLimit: m.cfg.StateLimit,
			Partition: -1,
		})
	}
	return out
}
