package exec

import (
	"fmt"

	"punctsafe/stream"
)

// Window configures the alternative state-bounding mechanism the paper
// contrasts with punctuations (§2.2, §6): sliding-window semantics. A
// tuple is retained only while it is inside the window; once it slides
// out it is purged regardless of punctuations. Windows guarantee bounded
// state unconditionally but change the query's answer — joins between
// tuples farther apart than the window are silently lost — whereas
// punctuation-based purging is exact. The WindowedMJoin exists to measure
// exactly that trade-off (experiment E11).
type Window struct {
	// Rows is the per-input row-based window size: each input retains at
	// most the last Rows tuples.
	Rows int
}

// WindowedMJoin is a symmetric multi-way join whose state is bounded by
// sliding windows instead of punctuations. It shares the probe machinery
// shape with MJoin but its purging is positional: the oldest tuple of an
// input is evicted when the window overflows.
type WindowedMJoin struct {
	m *MJoin
	w Window
	// Evicted counts tuples dropped by window slide, per input.
	Evicted []uint64
}

// NewWindowedMJoin builds the operator. The window must be positive.
func NewWindowedMJoin(cfg Config, w Window) (*WindowedMJoin, error) {
	if w.Rows <= 0 {
		return nil, fmt.Errorf("exec: window size must be positive, got %d", w.Rows)
	}
	// Window purging replaces punctuation purging entirely.
	cfg.DisablePurge = true
	m, err := NewMJoin(cfg)
	if err != nil {
		return nil, err
	}
	return &WindowedMJoin{
		m:       m,
		w:       w,
		Evicted: make([]uint64, cfg.Query.N()),
	}, nil
}

// Push feeds one element. Tuples probe and enter the window (evicting the
// oldest tuple if full); punctuations are consumed but ignored — the
// window mechanism does not need them.
func (wj *WindowedMJoin) Push(input int, e stream.Element) ([]stream.Element, error) {
	if e.IsPunct() {
		// Count it, nothing else: windows do not use punctuations.
		if err := e.Punct().Validate(wj.m.q.Stream(input)); err != nil {
			return nil, err
		}
		wj.m.clock++
		wj.m.stats.PunctsIn[input]++
		return nil, nil
	}
	t := e.Tuple()
	if err := t.Validate(wj.m.q.Stream(input)); err != nil {
		return nil, err
	}
	wj.m.clock++
	wj.m.stats.TuplesIn[input]++
	out, err := wj.m.probe(nil, input, t)
	if err != nil {
		return nil, err
	}
	wj.m.stats.Results += uint64(len(out))
	// Only the window removes, so the state holds exactly the window and
	// its oldest tuple is the one that slides out.
	st := wj.m.states[input]
	st.insert(t)
	if st.size() > wj.w.Rows {
		st.removeOldest()
		wj.Evicted[input]++
	}
	wj.m.stats.StateSize[input] = st.size()
	wj.m.stats.noteWatermarks()
	return out, nil
}

// Stats exposes the underlying operator counters (live; see MJoin.Stats
// for the aliasing caveat).
func (wj *WindowedMJoin) Stats() *Stats { return wj.m.stats }

// StatsSnapshot returns a deep-copied, detached copy of the counters.
func (wj *WindowedMJoin) StatsSnapshot() *Stats { return wj.m.StatsSnapshot() }

// OutputSchema is the concatenated result schema.
func (wj *WindowedMJoin) OutputSchema() *stream.Schema { return wj.m.OutputSchema() }
