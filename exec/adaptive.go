package exec

import (
	"fmt"

	"punctsafe/stream"
)

// AdaptivePolicy bounds the state-vs-throughput trade-off of §5.2 Plan
// Parameter II at runtime, in the spirit of the paper's "Adaptive Query
// Processing" discussion: run with a lazy purge batch while state is
// comfortable (amortizing purge work), and fall back to eager purging
// the moment the stored-tuple count crosses the high watermark, returning
// to lazy once it sinks below the low watermark.
type AdaptivePolicy struct {
	// HighWater switches purging to eager when total stored tuples reach
	// it.
	HighWater int
	// LowWater switches back to the lazy batch when total stored tuples
	// sink below it. Must be < HighWater.
	LowWater int
	// LazyBatch is the purge batch used while relaxed (must be > 1).
	LazyBatch int
}

// AdaptiveMJoin wraps an MJoin with an AdaptivePolicy.
type AdaptiveMJoin struct {
	m      *MJoin
	policy AdaptivePolicy
	eager  bool
	// Switches counts policy transitions (for observability and tests).
	Switches int
}

// NewAdaptiveMJoin builds the operator; it starts in lazy mode.
func NewAdaptiveMJoin(cfg Config, policy AdaptivePolicy) (*AdaptiveMJoin, error) {
	if policy.LazyBatch <= 1 {
		return nil, fmt.Errorf("exec: adaptive LazyBatch must be > 1, got %d", policy.LazyBatch)
	}
	if policy.LowWater >= policy.HighWater || policy.LowWater < 0 {
		return nil, fmt.Errorf("exec: adaptive watermarks invalid: low=%d high=%d", policy.LowWater, policy.HighWater)
	}
	cfg.PurgeBatch = policy.LazyBatch
	m, err := NewMJoin(cfg)
	if err != nil {
		return nil, err
	}
	return &AdaptiveMJoin{m: m, policy: policy}, nil
}

// Push feeds one element and lets the policy react to the resulting state.
func (a *AdaptiveMJoin) Push(input int, e stream.Element) ([]stream.Element, error) {
	out, err := a.m.Push(input, e)
	if err != nil {
		return nil, err
	}
	total := a.m.stats.TotalState()
	switch {
	case !a.eager && total >= a.policy.HighWater:
		a.eager = true
		a.Switches++
		a.m.cfg.PurgeBatch = 1
		// Catch up on the deferred work immediately, into the same buffer.
		out = a.m.flushPendingInto(out)
		a.m.outBuf = out
	case a.eager && total < a.policy.LowWater:
		a.eager = false
		a.Switches++
		a.m.cfg.PurgeBatch = a.policy.LazyBatch
	}
	return out, nil
}

// Eager reports the current mode.
func (a *AdaptiveMJoin) Eager() bool { return a.eager }

// Flush forces pending purge work.
func (a *AdaptiveMJoin) Flush() []stream.Element { return a.m.Flush() }

// Stats exposes the underlying operator counters (live; see MJoin.Stats
// for the aliasing caveat).
func (a *AdaptiveMJoin) Stats() *Stats { return a.m.Stats() }

// StatsSnapshot returns a deep-copied, detached copy of the counters.
func (a *AdaptiveMJoin) StatsSnapshot() *Stats { return a.m.StatsSnapshot() }

// Inner returns the wrapped MJoin (for schema and purgeability queries).
func (a *AdaptiveMJoin) Inner() *MJoin { return a.m }
