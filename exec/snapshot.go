package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"punctsafe/stream"
)

// Operator state serialization: a versioned, length-prefixed encoding of
// everything an MJoin accumulates at runtime — the ordered join-state
// columns, the punctuation stores (including lifespan deadlines), the
// stats counters, any punctuations pending a lazy purge round, and the
// pressure latch. Tuple and punctuation payloads reuse stream.Codec, so
// the on-disk form is schema-checked on the way back in.
//
// The index side of a joinState is NOT serialized: buckets are derivable
// from the ordered columns, and rebuilding them on load (inserting rows
// in ascending tupleID order, which keeps every bucket sorted for free)
// is cheaper and safer than trusting bytes from disk. The same goes for
// a stored punctuation's key and its purge-round stamp.
//
// Decoding is two-phase: DecodeState parses and validates a complete
// TreeState without touching the live operators; InstallState swaps it in
// afterwards. A corrupt snapshot therefore fails cleanly — wrapped in
// ErrCorruptState — and can never leave a tree half-restored.

// ErrCorruptState is returned (wrapped) when serialized operator state
// fails to parse or validate.
var ErrCorruptState = errors.New("exec: corrupt operator state")

// Format version tags. Bump when the layout changes; decoders reject
// anything else as corrupt (version-mismatched state is indistinguishable
// from damage once the layout moved).
//
// MJS2 carries reserved fields from the removed two-tier join state: per
// input, two watermarks (frozenBound, freezeAt) and a run of frozen rows
// ahead of the stored rows, and per operator a ColdSize stats column and a
// Freezes counter. The encoder writes them as zeros (an empty frozen run);
// the decoder still reads them, so a snapshot written with frozen rows
// restores them, in id order, ahead of the others.
const (
	treeStateMagic = "PTR1"
	opStateMagic   = "MJS2"
)

// TreeState is a fully decoded, validated snapshot of a tree's operator
// states, detached from any live tree until InstallState commits it.
type TreeState struct {
	ops []*opState
}

// opState is the staged state of one MJoin.
type opState struct {
	clock     uint64
	states    []*joinState
	puncts    []*punctStore
	stats     *Stats
	pending   []pendingPunct
	pressured bool
}

// WriteState serializes the tree's operator states (bottom-up, the
// Operators order) to w. Call it only from the goroutine driving the
// tree, or after it has quiesced; the engine Runtime routes checkpoint
// requests through each shard's mailbox for exactly that reason.
func (t *Tree) WriteState(w io.Writer) error {
	buf := make([]byte, 0, 4096)
	buf = append(buf, treeStateMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(t.ops)))
	for _, op := range t.ops {
		blob, err := op.join.appendState(nil)
		if err != nil {
			return err
		}
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	_, err := w.Write(buf)
	return err
}

// DecodeState parses a WriteState snapshot against this tree's shape
// (same plan, same operator count, same schemas) without modifying the
// tree. Any parse or validation failure returns an error wrapping
// ErrCorruptState and leaves the tree untouched.
func (t *Tree) DecodeState(r io.Reader) (*TreeState, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading state: %v", ErrCorruptState, err)
	}
	d := &stateDec{buf: buf}
	magic, err := d.take(len(treeStateMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != treeStateMagic {
		return nil, fmt.Errorf("%w: unsupported tree state version %q", ErrCorruptState, magic)
	}
	n, err := d.count("operator count")
	if err != nil {
		return nil, err
	}
	if n != len(t.ops) {
		return nil, fmt.Errorf("%w: snapshot holds %d operators, tree has %d", ErrCorruptState, n, len(t.ops))
	}
	ts := &TreeState{ops: make([]*opState, n)}
	for i, op := range t.ops {
		blobLen, err := d.count("operator blob length")
		if err != nil {
			return nil, err
		}
		blob, err := d.take(blobLen)
		if err != nil {
			return nil, err
		}
		os, err := op.join.decodeState(blob)
		if err != nil {
			return nil, fmt.Errorf("operator %d: %w", i, err)
		}
		ts.ops[i] = os
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after tree state", ErrCorruptState, len(d.buf)-d.off)
	}
	return ts, nil
}

// InstallState commits a snapshot previously decoded against this tree.
func (t *Tree) InstallState(s *TreeState) error {
	if len(s.ops) != len(t.ops) {
		return fmt.Errorf("%w: snapshot holds %d operators, tree has %d", ErrCorruptState, len(s.ops), len(t.ops))
	}
	for i, op := range t.ops {
		op.join.installState(s.ops[i])
	}
	return nil
}

// appendState appends the operator's serialized state to dst.
func (m *MJoin) appendState(dst []byte) ([]byte, error) {
	dst = append(dst, opStateMagic...)
	dst = binary.AppendUvarint(dst, m.clock)
	dst = binary.AppendUvarint(dst, uint64(m.q.N()))
	var err error
	for i := 0; i < m.q.N(); i++ {
		codec := stream.NewCodec(m.q.Stream(i))
		dst, err = m.appendInputState(dst, i, codec)
		if err != nil {
			return nil, err
		}
	}
	dst = m.stats.appendState(dst)
	dst = binary.AppendUvarint(dst, uint64(len(m.pending)))
	for _, pp := range m.pending {
		dst = binary.AppendUvarint(dst, uint64(pp.input))
		dst, err = stream.NewCodec(m.q.Stream(pp.input)).Encode(dst, stream.PunctElement(pp.p))
		if err != nil {
			return nil, fmt.Errorf("exec: serializing pending punctuation: %w", err)
		}
	}
	dst = append(dst, boolByte(m.pressured))
	return dst, nil
}

// appendInputState serializes one input's join state and punctuation
// store. Live rows travel in ascending tupleID order, after the reserved
// watermarks and an empty frozen run, so decoding rebuilds the columns and
// index buckets born sorted.
// Punctuation entries travel per scheme in sorted key order (including
// expired-but-unswept entries, which still count toward the store size
// the stats report).
func (m *MJoin) appendInputState(dst []byte, input int, codec *stream.Codec) ([]byte, error) {
	st := m.states[input]
	dst = binary.AppendUvarint(dst, uint64(st.nextID))
	dst = append(dst, 0, 0, 0) // reserved: frozenBound, freezeAt, frozen row count
	dst = binary.AppendUvarint(dst, uint64(st.size()))
	var encErr error
	for r := range st.ids {
		if st.dead[r] {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(st.ids[r]))
		if dst, encErr = codec.Encode(dst, stream.TupleElement(st.tuple(row(r)))); encErr != nil {
			return nil, fmt.Errorf("exec: serializing stored tuple: %w", encErr)
		}
	}
	ps := m.puncts[input]
	dst = binary.AppendUvarint(dst, uint64(len(ps.schemes)))
	for _, entries := range ps.entries {
		dst = binary.AppendUvarint(dst, uint64(entries.len()))
		entries.eachSorted(func(e *punctEntry) bool {
			if dst, encErr = codec.Encode(dst, stream.PunctElement(e.punct)); encErr != nil {
				return false
			}
			dst = binary.AppendUvarint(dst, e.arrived)
			dst = binary.AppendUvarint(dst, e.expires)
			dst = append(dst, boolByte(e.propagated))
			return true
		})
		if encErr != nil {
			return nil, fmt.Errorf("exec: serializing stored punctuation: %w", encErr)
		}
	}
	return dst, nil
}

// decodeState parses one operator's blob into a staged opState without
// touching the live operator.
func (m *MJoin) decodeState(blob []byte) (*opState, error) {
	d := &stateDec{buf: blob}
	magic, err := d.take(len(opStateMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != opStateMagic {
		return nil, fmt.Errorf("%w: unsupported operator state version %q", ErrCorruptState, magic)
	}
	os := &opState{}
	if os.clock, err = d.uvarint("clock"); err != nil {
		return nil, err
	}
	n, err := d.count("input count")
	if err != nil {
		return nil, err
	}
	if n != m.q.N() {
		return nil, fmt.Errorf("%w: snapshot holds %d inputs, operator has %d", ErrCorruptState, n, m.q.N())
	}
	os.states = make([]*joinState, n)
	os.puncts = make([]*punctStore, n)
	for i := 0; i < n; i++ {
		codec := stream.NewCodec(m.q.Stream(i))
		if os.states[i], err = m.decodeJoinState(d, i, codec); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		if os.puncts[i], err = m.decodePunctStore(d, i, codec, os.clock); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
	}
	if os.stats, err = decodeStats(d, n); err != nil {
		return nil, err
	}
	nPending, err := d.count("pending punctuation count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nPending; i++ {
		input, err := d.count("pending punctuation input")
		if err != nil {
			return nil, err
		}
		if input >= n {
			return nil, fmt.Errorf("%w: pending punctuation input %d out of range", ErrCorruptState, input)
		}
		e, err := d.element(stream.NewCodec(m.q.Stream(input)))
		if err != nil {
			return nil, err
		}
		if !e.IsPunct() {
			return nil, fmt.Errorf("%w: pending entry is not a punctuation", ErrCorruptState)
		}
		p := e.Punct()
		scheme := m.puncts[input].schemeIndex(p)
		if scheme < 0 {
			return nil, fmt.Errorf("%w: pending punctuation %s instantiates no scheme of input %d", ErrCorruptState, p, input)
		}
		os.pending = append(os.pending, pendingPunct{input: input, scheme: scheme, p: p})
	}
	pressured, err := d.byteVal("pressure latch")
	if err != nil {
		return nil, err
	}
	os.pressured = pressured != 0
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after operator state", ErrCorruptState, len(d.buf)-d.off)
	}
	return os, nil
}

// decodeJoinState rebuilds one input's ordered columns and re-derives
// the per-attribute index buckets (rows arrive in ascending id order, so
// appended buckets are born sorted). Frozen rows, which only older
// writers produce, come first; the ids of both runs must ascend strictly
// and stay below nextID, and the reserved watermarks keep their order,
// frozenBound <= freezeAt <= nextID.
func (m *MJoin) decodeJoinState(d *stateDec, input int, codec *stream.Codec) (*joinState, error) {
	nextID, err := d.uvarint("nextID")
	if err != nil {
		return nil, err
	}
	frozenBound, err := d.uvarint("frozenBound")
	if err != nil {
		return nil, err
	}
	freezeAt, err := d.uvarint("freezeAt")
	if err != nil {
		return nil, err
	}
	if frozenBound > freezeAt || freezeAt > nextID {
		return nil, fmt.Errorf("%w: watermarks out of order (frozenBound %d, freezeAt %d, nextID %d)",
			ErrCorruptState, frozenBound, freezeAt, nextID)
	}
	st := newJoinState(m.q.Stream(input), m.q.JoinAttrs(input))
	var scratch []stream.Value // append copies each row out of it
	prev := int64(-1)
	for _, what := range []string{"frozen tuple", "tuple"} {
		n, err := d.count(what + " count")
		if err != nil {
			return nil, err
		}
		for r := 0; r < n; r++ {
			id, err := d.uvarint(what + " id")
			if err != nil {
				return nil, err
			}
			if int64(id) <= prev {
				return nil, fmt.Errorf("%w: tuple ids not strictly ascending", ErrCorruptState)
			}
			if id >= nextID {
				return nil, fmt.Errorf("%w: %s id %d not below nextID %d", ErrCorruptState, what, id, nextID)
			}
			prev = int64(id)
			var e stream.Element
			if e, scratch, err = d.elementInto(codec, scratch); err != nil {
				return nil, err
			}
			if e.IsPunct() {
				return nil, fmt.Errorf("%w: stored row is not a tuple", ErrCorruptState)
			}
			st.append(tupleID(id), e.Tuple())
		}
	}
	st.nextID = tupleID(nextID)
	return st, nil
}

// decodePunctStore rebuilds one input's punctuation store, re-deriving
// each entry's equality key and validating it against the scheme it was
// stored under.
func (m *MJoin) decodePunctStore(d *stateDec, input int, codec *stream.Codec, clock uint64) (*punctStore, error) {
	ps := newPunctStore(m.q.Stream(input), m.puncts[input].schemes)
	nSchemes, err := d.count("scheme count")
	if err != nil {
		return nil, err
	}
	if nSchemes != len(ps.schemes) {
		return nil, fmt.Errorf("%w: snapshot holds %d schemes, store has %d", ErrCorruptState, nSchemes, len(ps.schemes))
	}
	for k := 0; k < nSchemes; k++ {
		nEntries, err := d.count("punctuation entry count")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nEntries; j++ {
			e, err := d.element(codec)
			if err != nil {
				return nil, err
			}
			if !e.IsPunct() {
				return nil, fmt.Errorf("%w: stored entry is not a punctuation", ErrCorruptState)
			}
			p := e.Punct()
			if !ps.schemes[k].Instantiates(p) {
				return nil, fmt.Errorf("%w: punctuation %s does not instantiate scheme %s", ErrCorruptState, p, ps.schemes[k])
			}
			entry := &punctEntry{punct: p}
			if entry.arrived, err = d.uvarint("punctuation arrival clock"); err != nil {
				return nil, err
			}
			if entry.expires, err = d.uvarint("punctuation expiry clock"); err != nil {
				return nil, err
			}
			propagated, err := d.byteVal("punctuation propagated flag")
			if err != nil {
				return nil, err
			}
			entry.propagated = propagated != 0
			if entry.arrived > clock {
				return nil, fmt.Errorf("%w: punctuation arrival clock %d beyond operator clock %d", ErrCorruptState, entry.arrived, clock)
			}
			consts := ps.constants(p)
			if _, dup := ps.find(k, consts); dup {
				return nil, fmt.Errorf("%w: duplicate punctuation entry for scheme %s", ErrCorruptState, ps.schemes[k])
			}
			ps.put(k, consts, entry)
			ps.size++
		}
	}
	return ps, nil
}

// installState commits a staged opState into the live operator.
func (m *MJoin) installState(s *opState) {
	m.clock = s.clock
	m.states = s.states
	m.puncts = s.puncts
	m.stats = s.stats
	m.pending = s.pending
	m.pressured = s.pressured
}

// appendState serializes the stats counters, with the reserved ColdSize
// column and Freezes counter as zeros.
func (s *Stats) appendState(dst []byte) []byte {
	for _, col := range [][]uint64{s.TuplesIn, s.PunctsIn, s.TuplesPurged, s.PunctsPurged} {
		for _, v := range col {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	for _, col := range [][]int{s.StateSize, make([]int, len(s.StateSize)), s.PunctStoreSize} {
		for _, v := range col {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	dst = binary.AppendUvarint(dst, s.Results)
	dst = binary.AppendUvarint(dst, s.OutPuncts)
	dst = binary.AppendUvarint(dst, uint64(s.MaxStateSize))
	dst = binary.AppendUvarint(dst, uint64(s.MaxPunctStoreSize))
	dst = binary.AppendUvarint(dst, s.PurgeChecks)
	dst = binary.AppendUvarint(dst, s.PressureEvents)
	return append(dst, 0) // reserved: Freezes
}

func decodeStats(d *stateDec, n int) (*Stats, error) {
	s := newStats(n)
	var err error
	for _, col := range [][]uint64{s.TuplesIn, s.PunctsIn, s.TuplesPurged, s.PunctsPurged} {
		for i := range col {
			if col[i], err = d.uvarint("stats counter"); err != nil {
				return nil, err
			}
		}
	}
	for _, col := range [][]int{s.StateSize, make([]int, n), s.PunctStoreSize} {
		for i := range col {
			v, err := d.uvarint("stats size")
			if err != nil {
				return nil, err
			}
			col[i] = int(v)
		}
	}
	if s.Results, err = d.uvarint("stats results"); err != nil {
		return nil, err
	}
	if s.OutPuncts, err = d.uvarint("stats out puncts"); err != nil {
		return nil, err
	}
	v, err := d.uvarint("stats max state")
	if err != nil {
		return nil, err
	}
	s.MaxStateSize = int(v)
	if v, err = d.uvarint("stats max punct store"); err != nil {
		return nil, err
	}
	s.MaxPunctStoreSize = int(v)
	if s.PurgeChecks, err = d.uvarint("stats purge checks"); err != nil {
		return nil, err
	}
	if s.PressureEvents, err = d.uvarint("stats pressure events"); err != nil {
		return nil, err
	}
	if _, err = d.uvarint("stats freezes"); err != nil {
		return nil, err
	}
	return s, nil
}

// stateDec is a bounds-checked cursor over a serialized state buffer;
// every failure wraps ErrCorruptState.
type stateDec struct {
	buf []byte
	off int
}

func (d *stateDec) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad %s at byte %d", ErrCorruptState, what, d.off)
	}
	d.off += n
	return v, nil
}

// count decodes a collection size, bounding it by the bytes remaining
// (every collection member costs at least one byte) so a corrupt count
// cannot drive a huge allocation.
func (d *stateDec) count(what string) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.buf)-d.off) {
		return 0, fmt.Errorf("%w: %s %d exceeds remaining %d bytes", ErrCorruptState, what, v, len(d.buf)-d.off)
	}
	return int(v), nil
}

func (d *stateDec) take(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf)-d.off {
		return nil, fmt.Errorf("%w: truncated at byte %d (want %d more)", ErrCorruptState, d.off, n)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *stateDec) byteVal(what string) (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("%w: truncated %s at byte %d", ErrCorruptState, what, d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// element decodes one codec-framed element in place (the codec encoding
// is self-delimiting).
func (d *stateDec) element(c *stream.Codec) (stream.Element, error) {
	e, _, err := d.elementInto(c, nil)
	return e, err
}

// elementInto is element decoding a tuple into buf's storage
// (Codec.DecodeInto), returning the buffer for the next call.
func (d *stateDec) elementInto(c *stream.Codec, buf []stream.Value) (stream.Element, []stream.Value, error) {
	e, buf, rest, err := c.DecodeInto(buf, d.buf[d.off:])
	if err != nil {
		return stream.Element{}, buf, fmt.Errorf("%w: element at byte %d: %v", ErrCorruptState, d.off, err)
	}
	d.off = len(d.buf) - len(rest)
	return e, buf, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
