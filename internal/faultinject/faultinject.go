// Package faultinject is the chaos harness for the fault-isolated
// runtime: it manufactures exactly-accounted contract violations — late
// tuples behind their covering punctuation, malformed elements, corrupt
// and truncated wire frames, network chaos — so tests can assert that
// an error policy loses precisely the injected offenders and nothing
// else. Every injector is driven by a seeded RNG and returns a Report of
// what it actually injected.
package faultinject

import (
	"encoding/binary"
	"math/rand"
	"sort"

	"punctsafe/stream"
)

// Item is one tagged element of a multiplexed feed (the shape the engine
// routes; kept local so this package stays import-light).
type Item struct {
	Stream string
	Elem   stream.Element
}

// Report tallies what a chaos pass injected.
type Report struct {
	// Late counts tuples re-sent after a punctuation covering them on
	// their own stream (promise violations under EnforcePromises).
	Late int
	// Malformed counts syntactically broken elements (wrong arity).
	Malformed int
	// DupPuncts counts duplicated punctuations (benign: stores dedup).
	DupPuncts int
	// Swapped counts same-stream adjacent tuple swaps (benign: the join
	// result multiset is insertion-order independent).
	Swapped int
	// Garbled counts frames whose payload was overwritten in place
	// (boundary intact, payload undecodable).
	Garbled int
	// Unknown counts injected frames naming an unregistered stream.
	Unknown int
	// Truncated counts truncated frame prefixes appended at the wire's
	// tail (0 or 1).
	Truncated int
}

// Total returns the number of injected offenders a lenient runtime is
// expected to dead-letter (benign injections excluded).
func (r Report) Total() int {
	return r.Late + r.Malformed + r.Garbled + r.Unknown + r.Truncated
}

// InjectLate re-sends up to n already-covered tuples immediately after
// the punctuation that covers them, on the same stream — the canonical
// broken-promise fault. It returns the new feed and the number actually
// injected (fewer when the feed has too few coverable tuples).
func InjectLate(items []Item, n int, seed int64) ([]Item, Report) {
	rng := rand.New(rand.NewSource(seed))
	type candidate struct {
		after int // feed index of the covering punctuation
		item  Item
	}
	var cands []candidate
	past := make(map[string][]stream.Tuple)
	for i, it := range items {
		if !it.Elem.IsPunct() {
			past[it.Stream] = append(past[it.Stream], it.Elem.Tuple())
			continue
		}
		p := it.Elem.Punct()
		for _, t := range past[it.Stream] {
			if p.Matches(t) {
				cands = append(cands, candidate{after: i, item: Item{Stream: it.Stream, Elem: stream.TupleElement(t)}})
				break // one candidate per punctuation keeps counts simple
			}
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	inject := make(map[int][]Item, len(cands))
	for _, c := range cands {
		inject[c.after] = append(inject[c.after], c.item)
	}
	out := make([]Item, 0, len(items)+len(cands))
	for i, it := range items {
		out = append(out, it)
		out = append(out, inject[i]...)
	}
	return out, Report{Late: len(cands)}
}

// InjectMalformed inserts n wrong-arity tuples on the named stream at
// seeded positions (each fails schema validation at the operator).
func InjectMalformed(items []Item, streamName string, n int, seed int64) ([]Item, Report) {
	rng := rand.New(rand.NewSource(seed))
	bad := Item{Stream: streamName, Elem: stream.TupleElement(stream.NewTuple(stream.Str("chaos")))}
	out := append([]Item(nil), items...)
	for i := 0; i < n; i++ {
		at := rng.Intn(len(out) + 1)
		out = append(out[:at], append([]Item{bad}, out[at:]...)...)
	}
	return out, Report{Malformed: n}
}

// DuplicatePuncts re-sends up to n punctuations right after themselves —
// benign chaos the punctuation store must absorb without double-purging.
func DuplicatePuncts(items []Item, n int, seed int64) ([]Item, Report) {
	rng := rand.New(rand.NewSource(seed))
	var idxs []int
	for i, it := range items {
		if it.Elem.IsPunct() {
			idxs = append(idxs, i)
		}
	}
	rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
	if len(idxs) > n {
		idxs = idxs[:n]
	}
	dup := make(map[int]bool, len(idxs))
	for _, i := range idxs {
		dup[i] = true
	}
	out := make([]Item, 0, len(items)+len(idxs))
	for i, it := range items {
		out = append(out, it)
		if dup[i] {
			out = append(out, it)
		}
	}
	return out, Report{DupPuncts: len(idxs)}
}

// SwapAdjacentTuples performs up to n swaps of adjacent same-stream
// tuple pairs — benign reordering (join results are a multiset).
func SwapAdjacentTuples(items []Item, n int, seed int64) ([]Item, Report) {
	rng := rand.New(rand.NewSource(seed))
	out := append([]Item(nil), items...)
	var pairs []int
	for i := 0; i+1 < len(out); i++ {
		if out[i].Stream == out[i+1].Stream && !out[i].Elem.IsPunct() && !out[i+1].Elem.IsPunct() {
			pairs = append(pairs, i)
			i++ // keep swap sites disjoint
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if len(pairs) > n {
		pairs = pairs[:n]
	}
	for _, i := range pairs {
		out[i], out[i+1] = out[i+1], out[i]
	}
	return out, Report{Swapped: len(pairs)}
}

// WireChaosConfig selects the wire-level faults BuildWire injects. All
// injections are additive copies: every original frame survives intact,
// so a lenient reader should recover the full original feed and report
// exactly Report.Total() faults.
type WireChaosConfig struct {
	// GarbleEvery inserts, after every k-th frame, a copy of it whose
	// payload bytes are overwritten (frame boundary stays parseable).
	GarbleEvery int
	// UnknownEvery inserts, after every k-th frame, a well-formed frame
	// naming an unregistered stream.
	UnknownEvery int
	// TruncateTail appends a truncated prefix of the last frame at the
	// end of the wire (a mid-frame connection cut).
	TruncateTail bool
}

// BuildWire assembles per-element frames into one chaotic wire.
func BuildWire(frames [][]byte, cfg WireChaosConfig) ([]byte, Report) {
	var rep Report
	var out []byte
	for i, f := range frames {
		out = append(out, f...)
		if cfg.GarbleEvery > 0 && (i+1)%cfg.GarbleEvery == 0 {
			out = append(out, garbleFrame(f)...)
			rep.Garbled++
		}
		if cfg.UnknownEvery > 0 && (i+1)%cfg.UnknownEvery == 0 {
			out = append(out, unknownFrame()...)
			rep.Unknown++
		}
	}
	if cfg.TruncateTail && len(frames) > 0 {
		// Sever the copy right after the stream name: the orphaned prefix
		// holds only a length byte and ASCII name bytes, so no suffix of it
		// can masquerade as a fresh frame boundary and a resyncing reader
		// reports the whole tail as exactly one fault.
		last := frames[len(frames)-1]
		nameLen, n := binary.Uvarint(last)
		cut := n + int(nameLen)
		if n <= 0 || cut >= len(last) {
			cut = len(last)/2 + 1
		}
		out = append(out, last[:cut]...)
		rep.Truncated++
	}
	return out, rep
}

// garbleFrame copies a frame and overwrites its payload with 0xFF bytes:
// the header (stream name and payload length) still parses, so a lenient
// reader can skip the frame as one unit, but the payload cannot decode.
func garbleFrame(frame []byte) []byte {
	f := append([]byte(nil), frame...)
	nameLen, n := binary.Uvarint(f)
	if n <= 0 {
		return f
	}
	p := n + int(nameLen)
	_, n2 := binary.Uvarint(f[p:])
	if n2 <= 0 {
		return f
	}
	for i := p + n2; i < len(f); i++ {
		f[i] = 0xFF
	}
	return f
}

// unknownFrame builds a well-formed frame for a stream no reader has.
func unknownFrame() []byte {
	const name = "chaos-unknown"
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	out = binary.AppendUvarint(out, 1)
	out = append(out, 0x00)
	return out
}

// CrashPoints picks count distinct element boundaries in a feed of n
// elements, seeded and sorted ascending — the indices at which a crash
// harness checkpoints and then kills the runtime. Boundaries are drawn
// from [1, n) so every crash has something before it and something after
// it (crashing on an empty prefix or after the last element degenerates
// to the plain round-trip test).
func CrashPoints(n, count int, seed int64) []int {
	if n <= 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	picked := make(map[int]bool, count)
	for len(picked) < count && len(picked) < n-1 {
		picked[1+rng.Intn(n-1)] = true
	}
	out := make([]int, 0, len(picked))
	for k := range picked {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// CorruptCopies returns count damaged variants of a snapshot blob,
// seeded: truncations at random points (torn writes), single-byte
// garbles, and random-garbage tails. A restore path must reject every
// one with its typed corruption error and never panic.
func CorruptCopies(blob []byte, count int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		switch rng.Intn(3) {
		case 0: // torn write: a strict prefix
			out = append(out, append([]byte(nil), blob[:rng.Intn(len(blob))]...))
		case 1: // bit rot: one byte flipped
			g := append([]byte(nil), blob...)
			g[rng.Intn(len(g))] ^= byte(1 + rng.Intn(255))
			out = append(out, g)
		default: // overwrite tail with garbage
			g := append([]byte(nil), blob...)
			start := rng.Intn(len(g))
			for j := start; j < len(g); j++ {
				g[j] = byte(rng.Intn(256))
			}
			out = append(out, g)
		}
	}
	return out
}
