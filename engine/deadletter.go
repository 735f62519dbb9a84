package engine

import (
	"sync"

	"punctsafe/stream"
)

// DeadLetter is one quarantined offender: an element (or raw wire frame)
// the error policy removed from a stream instead of failing its shard.
type DeadLetter struct {
	// Seq is the offender's arrival order among all dead letters.
	Seq uint64
	// Stream names the raw stream the offender arrived on ("" when a wire
	// frame was too corrupt to even name its stream).
	Stream string
	// Query names the query whose shard rejected the element ("" for
	// wire-level faults caught before routing).
	Query string
	// Elem is the offending element, when it decoded at all.
	Elem stream.Element
	// Frame holds the raw bytes of an undecodable wire frame.
	Frame []byte
	// Err is the classification error that condemned the offender.
	Err error
}

// DeadLetterSnapshot is a point-in-time view of the dead-letter queue.
type DeadLetterSnapshot struct {
	// Total counts every offender the policy absorbed (Drop and
	// Quarantine both count; only Quarantine retains entries).
	Total uint64
	// Evicted counts retained entries later displaced by the bound.
	Evicted uint64
	// ByStream and ByQuery break Total down by origin. Wire-level faults
	// with an unknown stream count under "".
	ByStream map[string]uint64
	ByQuery  map[string]uint64
	// Entries are the retained offenders, oldest first.
	Entries []DeadLetter
}

// deadLetterQueue is the bounded quarantine behind a Runtime. Offenders
// arrive from shard workers and ingesting goroutines concurrently; the
// queue is mutex-protected, which is fine because it sits entirely on the
// error path.
type deadLetterQueue struct {
	mu       sync.Mutex
	keep     bool // retain entries (Quarantine) or only count (Drop)
	limit    int
	seq      uint64
	evicted  uint64
	byStream map[string]uint64
	byQuery  map[string]uint64
	ring     []DeadLetter // retained entries, ring-buffered
	head     int          // index of the oldest retained entry
	n        int          // retained count
}

const defaultDeadLetterLimit = 128

func newDeadLetterQueue(keep bool, limit int) *deadLetterQueue {
	if limit <= 0 {
		limit = defaultDeadLetterLimit
	}
	return &deadLetterQueue{
		keep:     keep,
		limit:    limit,
		byStream: make(map[string]uint64),
		byQuery:  make(map[string]uint64),
	}
}

// add records one offender, retaining it when the queue keeps entries.
// A retained tuple is cloned, since the offender may be lent (wire
// ingest reuses its values). The newest entries win: once the bound is
// reached the oldest retained entry is evicted (its counts remain).
func (q *deadLetterQueue) add(d DeadLetter) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	d.Seq = q.seq
	q.byStream[d.Stream]++
	if d.Query != "" {
		q.byQuery[d.Query]++
	}
	if !q.keep {
		return
	}
	if !d.Elem.IsPunct() {
		d.Elem = stream.TupleElement(d.Elem.Tuple().Clone())
	}
	if q.ring == nil {
		q.ring = make([]DeadLetter, q.limit)
	}
	if q.n == q.limit {
		q.head = (q.head + 1) % q.limit
		q.n--
		q.evicted++
	}
	q.ring[(q.head+q.n)%q.limit] = d
	q.n++
}

// install replaces the queue's state with a restored snapshot. The
// queue's own keep/limit configuration governs retention: entries beyond
// the bound are dropped oldest-first (counted as evicted), and a
// non-retaining (Drop) queue keeps only the counters, exactly as if the
// offenders had arrived live.
func (q *deadLetterQueue) install(s DeadLetterSnapshot) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq = s.Total
	q.evicted = s.Evicted
	q.byStream = make(map[string]uint64, len(s.ByStream))
	for k, v := range s.ByStream {
		q.byStream[k] = v
	}
	q.byQuery = make(map[string]uint64, len(s.ByQuery))
	for k, v := range s.ByQuery {
		q.byQuery[k] = v
	}
	q.ring = nil
	q.head = 0
	q.n = 0
	if !q.keep {
		return
	}
	entries := s.Entries
	if len(entries) > q.limit {
		q.evicted += uint64(len(entries) - q.limit)
		entries = entries[len(entries)-q.limit:]
	}
	if len(entries) > 0 {
		q.ring = make([]DeadLetter, q.limit)
		q.n = copy(q.ring, entries)
	}
}

// snapshot returns a detached copy of the queue's state.
func (q *deadLetterQueue) snapshot() DeadLetterSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := DeadLetterSnapshot{
		Total:    q.seq,
		Evicted:  q.evicted,
		ByStream: make(map[string]uint64, len(q.byStream)),
		ByQuery:  make(map[string]uint64, len(q.byQuery)),
		Entries:  make([]DeadLetter, 0, q.n),
	}
	for k, v := range q.byStream {
		s.ByStream[k] = v
	}
	for k, v := range q.byQuery {
		s.ByQuery[k] = v
	}
	for i := 0; i < q.n; i++ {
		s.Entries = append(s.Entries, q.ring[(q.head+i)%q.limit])
	}
	return s
}
