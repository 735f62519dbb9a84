package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"punctsafe/exec"
	"punctsafe/stream"
)

// Durable checkpoint/restore for the sharded runtime.
//
// A checkpoint is one atomic snapshot of everything the runtime would
// lose in a crash: every shard's operator state (join states,
// punctuation stores with lifespans, stats, pending lazy purges), the
// dead-letter queue, and the committed resume offset of every named
// ingest source. The file layout is
//
//	"PSCKPT02" uvarint(len(body)) body crc32(everything before it)
//
// so a torn write is detectable three ways: short header, length
// mismatch, checksum mismatch. Operator state inside the body reuses
// exec's versioned tree-state encoding.
//
// Consistency comes from a mailbox barrier: Checkpoint holds the
// runtime's close lock (no new sends can start) and posts a barrier
// message to every shard; mailbox FIFO order means each worker has fully
// applied everything enqueued before the barrier when it serializes its
// own tree. Offsets committed via SendAt and IngestWireResume move under
// the same lock's read side (Runtime.commit), so a snapshot never pairs
// applied elements with a stale offset or an advanced offset with
// unapplied elements. Results delivered downstream after the checkpoint
// are replayed on resume — the runtime is exactly-once for state and
// at-least-once for output, as DESIGN.md § Recovery model spells out.

// ErrCorruptCheckpoint is returned (wrapped) when a checkpoint fails to
// parse, validate, or match the registered queries. Restoring never
// panics and never half-applies: on any error the register's trees are
// exactly as they were.
var ErrCorruptCheckpoint = errors.New("engine: corrupt checkpoint")

// ErrKilled is the error a killed runtime reports (see Kill).
var ErrKilled = errors.New("engine: runtime killed")

// checkpointMagic doubles as format version; readers reject anything
// else, so a layout change shows up as ErrCorruptCheckpoint, not as
// silently misparsed state. Version 02 added the per-query delivery
// count to the per-shard section (serving-layer sequence numbers).
const checkpointMagic = "PSCKPT02"

// Kill simulates a crash: every worker stops processing mid-stream (no
// batch flush, no final purge round) and the runtime reports ErrKilled.
// Mailboxes keep draining without effect so blocked producers unwind; a
// plain shard's worker notices Kill at its next take, so an idle one
// stops at the next control request or at Close. Call Close and Wait
// afterwards to reap the workers. The recovery test
// harness uses this to prove checkpoint→crash→restore equivalence.
func (rt *Runtime) Kill() {
	rt.killOnce.Do(func() {
		rt.fail(ErrKilled)
		close(rt.kill)
	})
}

// ResumeOffset returns the named source's committed resume position:
// zero on a fresh runtime, the restored offset after RestoreRuntime, the
// last committed offset while feeding. Producers resume feeding from
// exactly this position after a restore.
func (rt *Runtime) ResumeOffset(source string) int64 {
	rt.srcMu.Lock()
	defer rt.srcMu.Unlock()
	return rt.sources[source]
}

// SourceOffsets returns a copy of every named ingest source's committed
// resume offset. The serving layer's standby uses it to acknowledge
// applied (memory-durable) replication progress when no checkpoint path
// is configured.
func (rt *Runtime) SourceOffsets() map[string]int64 {
	return rt.sourceOffsets()
}

// sourceOffsets copies the committed offsets map.
func (rt *Runtime) sourceOffsets() map[string]int64 {
	rt.srcMu.Lock()
	defer rt.srcMu.Unlock()
	out := make(map[string]int64, len(rt.sources))
	for k, v := range rt.sources {
		out[k] = v
	}
	return out
}

// CheckpointSummary describes the consistent cut a checkpoint captured:
// the committed resume offset of every ingest source and each query's
// delivery count at the barrier. The serving layer uses it to send
// durable acknowledgements to producers and to trim its subscriber
// replay rings to the cut.
type CheckpointSummary struct {
	// Offsets maps ingest source names to their committed resume offsets.
	Offsets map[string]int64
	// Delivered maps query names to their total delivery counts at the
	// cut (see Registered.Delivered).
	Delivered map[string]uint64
}

// Checkpoint quiesces every shard via a mailbox barrier and writes one
// atomic snapshot of the runtime to w: operator state per query, the
// dead-letter queue, and the committed ingest offsets. It blocks
// concurrent sends for the barrier's duration and fails (writing
// nothing) if the runtime has failed. Checkpointing a Closed runtime
// waits for the drain and snapshots the final state.
func (rt *Runtime) Checkpoint(w io.Writer) error {
	_, err := rt.CheckpointSummary(w)
	return err
}

// CheckpointSummary is Checkpoint plus a description of the cut it
// captured.
func (rt *Runtime) CheckpointSummary(w io.Writer) (CheckpointSummary, error) {
	var sum CheckpointSummary
	rt.closeMu.Lock()
	defer rt.closeMu.Unlock()
	if err := rt.Err(); err != nil {
		return sum, fmt.Errorf("engine: checkpoint: runtime has failed: %w", err)
	}
	states := make([][]byte, len(rt.shards))
	delivered := make(map[string]uint64, len(rt.d.order))
	if rt.closed {
		for _, s := range rt.shards {
			<-s.done
		}
		if err := rt.Err(); err != nil {
			return sum, fmt.Errorf("engine: checkpoint: runtime has failed: %w", err)
		}
		for i, s := range rt.shards {
			var buf bytes.Buffer
			if err := s.reg.ex.WriteState(&buf); err != nil {
				return sum, fmt.Errorf("engine: checkpoint: query %q: %w", s.reg.Name, err)
			}
			states[i] = buf.Bytes()
			// <-s.done above synchronized with the worker's final writes,
			// so its subscribers' delivery counts are readable.
			for _, m := range s.reg.group.members {
				delivered[m.Name] = m.delivered
			}
		}
	} else {
		reply := make(chan shardCkpt, len(rt.shards))
		for _, s := range rt.shards {
			// On a partitioned shard the barrier travels as a control
			// chunk through every partition mailbox plus the routing
			// script; the merge stage serializes the quiesced replicas
			// and the alignment gate in one consistent cut.
			s.control(&shardCtrl{ckpt: reply})
		}
		var firstErr error
		for range rt.shards {
			c := <-reply
			if c.err != nil {
				if firstErr == nil {
					firstErr = c.err
				}
				continue
			}
			states[c.idx] = c.state
			for _, sd := range c.subs {
				delivered[sd.name] = sd.delivered
			}
		}
		if firstErr != nil {
			return sum, fmt.Errorf("engine: checkpoint: %w", firstErr)
		}
	}
	sum.Offsets = rt.sourceOffsets()
	sum.Delivered = delivered
	body := rt.appendCheckpointBody(make([]byte, 0, 4096), sum.Offsets, states, delivered)
	out := make([]byte, 0, len(body)+len(checkpointMagic)+binary.MaxVarintLen64+4)
	out = append(out, checkpointMagic...)
	out = binary.AppendUvarint(out, uint64(len(body)))
	out = append(out, body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out))
	out = append(out, crc[:]...)
	if _, err := w.Write(out); err != nil {
		return sum, err
	}
	return sum, nil
}

// CheckpointFile writes a checkpoint to path atomically: the snapshot
// lands in a temporary sibling, is fsynced, and then renamed over path,
// so a crash mid-write leaves the previous checkpoint intact.
func (rt *Runtime) CheckpointFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := rt.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// appendCheckpointBody serializes the snapshot body: sorted source
// offsets, the dead-letter queue, then each query's delivery count and
// state in registration order. A shared physical tree's state is written
// once, on its group's driver; follower sections carry a zero-length
// state, which restore recognizes as "aliases the preceding driver".
func (rt *Runtime) appendCheckpointBody(dst []byte, offsets map[string]int64, states [][]byte, delivered map[string]uint64) []byte {
	names := make([]string, 0, len(offsets))
	for name := range offsets {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = appendCkptString(dst, name)
		dst = binary.AppendUvarint(dst, uint64(offsets[name]))
	}
	dst = appendDeadLetterState(dst, rt.dlq.snapshot())
	dst = binary.AppendUvarint(dst, uint64(len(rt.d.order)))
	for _, name := range rt.d.order {
		reg := rt.d.queries[name]
		dst = appendCkptString(dst, name)
		dst = binary.AppendUvarint(dst, delivered[name])
		var state []byte
		if reg.isDriver() {
			state = states[rt.byName[name].idx]
		}
		dst = binary.AppendUvarint(dst, uint64(len(state)))
		dst = append(dst, state...)
	}
	return dst
}

// checkpointSnapshot is a fully parsed checkpoint, not yet applied.
type checkpointSnapshot struct {
	offsets map[string]int64
	dlq     DeadLetterSnapshot
	shards  []shardState
}

type shardState struct {
	name      string
	delivered uint64
	state     []byte
}

// RestoreRuntime rebuilds a sharded runtime from a checkpoint written by
// Checkpoint. The DSMS must hold the same registered schemes and queries
// (same names, plans, and options) as the runtime that wrote the
// snapshot. Restoring is all-or-nothing: every blob is parsed and
// validated before any operator state is touched, so a truncated,
// garbled, or version-mismatched checkpoint returns an error wrapping
// ErrCorruptCheckpoint and leaves the register exactly as it was.
//
// After a successful restore, feed each ingest source from its
// ResumeOffset: elements up to the recorded offsets are already inside
// the restored state, elements after them have left no trace, so
// resumption neither loses nor duplicates input. Result tuples delivered
// between the checkpoint and the crash are emitted again on resume;
// Registered result buffers are not part of the snapshot.
func (d *DSMS) RestoreRuntime(r io.Reader, opts RuntimeOptions) (*Runtime, error) {
	snap, err := readCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if len(snap.shards) != len(d.order) {
		return nil, fmt.Errorf("%w: checkpoint holds %d queries, register has %d",
			ErrCorruptCheckpoint, len(snap.shards), len(d.order))
	}
	// A staged state is either a Tree snapshot or a PartitionedTree
	// snapshot, matching the executor the query registered with — a
	// checkpoint taken at one partition count only restores into the same
	// count (the formats differ, so a mismatch parses as corrupt). A
	// share-group follower carries no state of its own (zero-length
	// section): its driver's install covers the aliased tree. A state
	// presence/role mismatch means the register's Share options disagree
	// with the snapshot's, which restore treats as corrupt.
	type stagedState struct {
		reg       *Registered
		delivered uint64
		state     *exec.TreeState
		part      *exec.PartitionedTreeState
	}
	staged := make([]stagedState, 0, len(snap.shards))
	seen := make(map[string]bool, len(snap.shards))
	for _, sh := range snap.shards {
		reg, ok := d.queries[sh.name]
		if !ok {
			return nil, fmt.Errorf("%w: checkpointed query %q is not registered", ErrCorruptCheckpoint, sh.name)
		}
		if seen[sh.name] {
			return nil, fmt.Errorf("%w: duplicate query %q", ErrCorruptCheckpoint, sh.name)
		}
		seen[sh.name] = true
		st := stagedState{reg: reg, delivered: sh.delivered}
		if !reg.isDriver() {
			if len(sh.state) != 0 {
				return nil, fmt.Errorf("%w: query %q: shared-tree subscriber carries %d bytes of state",
					ErrCorruptCheckpoint, sh.name, len(sh.state))
			}
			staged = append(staged, st)
			continue
		}
		if len(sh.state) == 0 {
			return nil, fmt.Errorf("%w: query %q: tree owner section has no state (share-group mismatch)",
				ErrCorruptCheckpoint, sh.name)
		}
		var err error
		if reg.Part != nil {
			st.part, err = reg.Part.DecodeState(bytes.NewReader(sh.state))
		} else {
			st.state, err = reg.Tree.DecodeState(bytes.NewReader(sh.state))
		}
		if err != nil {
			return nil, fmt.Errorf("%w: query %q: %v", ErrCorruptCheckpoint, sh.name, err)
		}
		staged = append(staged, st)
	}
	// Commit point: everything parsed and validated; install cannot fail.
	for _, st := range staged {
		var err error
		switch {
		case st.part != nil:
			err = st.reg.Part.InstallState(st.part)
		case st.state != nil:
			err = st.reg.Tree.InstallState(st.state)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
		}
		st.reg.delivered = st.delivered
	}
	rt := d.RunSharded(opts)
	rt.dlq.install(snap.dlq)
	rt.srcMu.Lock()
	for k, v := range snap.offsets {
		rt.sources[k] = v
	}
	rt.srcMu.Unlock()
	return rt, nil
}

// readCheckpoint parses and verifies a checkpoint stream without
// touching any runtime state.
func readCheckpoint(r io.Reader) (*checkpointSnapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("engine: reading checkpoint: %w", err)
	}
	if len(data) < len(checkpointMagic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any checkpoint", ErrCorruptCheckpoint, len(data))
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q (version mismatch, or not a checkpoint)",
			ErrCorruptCheckpoint, data[:len(checkpointMagic)])
	}
	bodyLen, n := binary.Uvarint(data[len(checkpointMagic):])
	if n <= 0 {
		return nil, fmt.Errorf("%w: unreadable body length", ErrCorruptCheckpoint)
	}
	bodyStart := len(checkpointMagic) + n
	if bodyLen > uint64(len(data)-bodyStart) {
		return nil, fmt.Errorf("%w: torn file: body claims %d bytes, %d remain",
			ErrCorruptCheckpoint, bodyLen, len(data)-bodyStart)
	}
	total := bodyStart + int(bodyLen) + 4
	if len(data) != total {
		return nil, fmt.Errorf("%w: torn or padded file: %d bytes, want %d", ErrCorruptCheckpoint, len(data), total)
	}
	want := binary.LittleEndian.Uint32(data[total-4:])
	if got := crc32.ChecksumIEEE(data[:total-4]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorruptCheckpoint, want, got)
	}
	d := &ckptDec{buf: data[bodyStart : total-4]}
	snap := &checkpointSnapshot{offsets: make(map[string]int64)}
	nSources, err := d.count("source count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nSources; i++ {
		name, err := d.str("source name")
		if err != nil {
			return nil, err
		}
		off, err := d.uvarint("source offset")
		if err != nil {
			return nil, err
		}
		if _, dup := snap.offsets[name]; dup {
			return nil, fmt.Errorf("%w: duplicate source %q", ErrCorruptCheckpoint, name)
		}
		snap.offsets[name] = int64(off)
	}
	if snap.dlq, err = decodeDeadLetterState(d); err != nil {
		return nil, err
	}
	nShards, err := d.count("query count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nShards; i++ {
		name, err := d.str("query name")
		if err != nil {
			return nil, err
		}
		delivered, err := d.uvarint("query delivery count")
		if err != nil {
			return nil, err
		}
		stateLen, err := d.count("query state length")
		if err != nil {
			return nil, err
		}
		state, err := d.take(stateLen)
		if err != nil {
			return nil, err
		}
		snap.shards = append(snap.shards, shardState{name: name, delivered: delivered, state: state})
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes in body", ErrCorruptCheckpoint, len(d.buf)-d.off)
	}
	return snap, nil
}

// appendDeadLetterState serializes a dead-letter snapshot (sorted count
// maps, entries oldest first). DeadLetter errors survive as their
// message text: error types are not round-trippable, and the text is
// what inspection and equivalence checks consume.
func appendDeadLetterState(dst []byte, s DeadLetterSnapshot) []byte {
	dst = binary.AppendUvarint(dst, s.Total)
	dst = binary.AppendUvarint(dst, s.Evicted)
	dst = appendCountMap(dst, s.ByStream)
	dst = appendCountMap(dst, s.ByQuery)
	dst = binary.AppendUvarint(dst, uint64(len(s.Entries)))
	for _, e := range s.Entries {
		dst = binary.AppendUvarint(dst, e.Seq)
		dst = appendCkptString(dst, e.Stream)
		dst = appendCkptString(dst, e.Query)
		dst = appendAnyElement(dst, e.Elem)
		dst = binary.AppendUvarint(dst, uint64(len(e.Frame)))
		dst = append(dst, e.Frame...)
		errText := ""
		if e.Err != nil {
			errText = e.Err.Error()
		}
		dst = appendCkptString(dst, errText)
	}
	return dst
}

func decodeDeadLetterState(d *ckptDec) (DeadLetterSnapshot, error) {
	var s DeadLetterSnapshot
	var err error
	if s.Total, err = d.uvarint("dead-letter total"); err != nil {
		return s, err
	}
	if s.Evicted, err = d.uvarint("dead-letter evicted"); err != nil {
		return s, err
	}
	if s.ByStream, err = decodeCountMap(d, "per-stream counts"); err != nil {
		return s, err
	}
	if s.ByQuery, err = decodeCountMap(d, "per-query counts"); err != nil {
		return s, err
	}
	n, err := d.count("dead-letter entry count")
	if err != nil {
		return s, err
	}
	for i := 0; i < n; i++ {
		var e DeadLetter
		if e.Seq, err = d.uvarint("dead-letter seq"); err != nil {
			return s, err
		}
		if e.Stream, err = d.str("dead-letter stream"); err != nil {
			return s, err
		}
		if e.Query, err = d.str("dead-letter query"); err != nil {
			return s, err
		}
		if e.Elem, err = decodeAnyElement(d); err != nil {
			return s, err
		}
		frameLen, err := d.count("dead-letter frame length")
		if err != nil {
			return s, err
		}
		frame, err := d.take(frameLen)
		if err != nil {
			return s, err
		}
		if frameLen > 0 {
			e.Frame = append([]byte(nil), frame...)
		}
		errText, err := d.str("dead-letter error")
		if err != nil {
			return s, err
		}
		if errText != "" {
			e.Err = errors.New(errText)
		}
		s.Entries = append(s.Entries, e)
	}
	return s, nil
}

func appendCountMap(dst []byte, m map[string]uint64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendCkptString(dst, k)
		dst = binary.AppendUvarint(dst, m[k])
	}
	return dst
}

func decodeCountMap(d *ckptDec, what string) (map[string]uint64, error) {
	n, err := d.count(what)
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k, err := d.str(what)
		if err != nil {
			return nil, err
		}
		v, err := d.uvarint(what)
		if err != nil {
			return nil, err
		}
		if _, dup := m[k]; dup {
			return nil, fmt.Errorf("%w: duplicate key %q in %s", ErrCorruptCheckpoint, k, what)
		}
		m[k] = v
	}
	return m, nil
}

// Schema-free element encoding for dead letters: quarantined elements
// are by nature things that failed schema validation (wrong arity, a
// tuple for the wrong stream), so stream.Codec cannot carry them; this
// encoding is total over whatever Element the queue holds.
const (
	anyElemAbsent byte = 0
	anyElemTuple  byte = 1
	anyElemPunct  byte = 2

	anyValInt     byte = 0
	anyValFloat   byte = 1
	anyValString  byte = 2
	anyValInvalid byte = 3

	anyPatWildcard byte = 0
	anyPatConst    byte = 1
	anyPatLeq      byte = 2
)

func appendAnyElement(dst []byte, e stream.Element) []byte {
	if e.IsPunct() {
		p := e.Punct()
		dst = append(dst, anyElemPunct)
		dst = binary.AppendUvarint(dst, uint64(p.Arity()))
		for i := range p.Arity() {
			switch pat := p.Pattern(i); {
			case pat.IsWildcard():
				dst = append(dst, anyPatWildcard)
			case pat.IsLeq():
				dst = append(dst, anyPatLeq)
				dst = appendAnyValue(dst, pat.Value())
			default:
				dst = append(dst, anyPatConst)
				dst = appendAnyValue(dst, pat.Value())
			}
		}
		return dst
	}
	t := e.Tuple()
	if len(t.Values) == 0 {
		return append(dst, anyElemAbsent)
	}
	dst = append(dst, anyElemTuple)
	dst = binary.AppendUvarint(dst, uint64(len(t.Values)))
	for _, v := range t.Values {
		dst = appendAnyValue(dst, v)
	}
	return dst
}

func appendAnyValue(dst []byte, v stream.Value) []byte {
	switch v.Kind() {
	case stream.KindInt:
		dst = append(dst, anyValInt)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.AsInt()))
		return append(dst, buf[:]...)
	case stream.KindFloat:
		dst = append(dst, anyValFloat)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.AsFloat()))
		return append(dst, buf[:]...)
	case stream.KindString:
		dst = append(dst, anyValString)
		s := v.AsString()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	default:
		return append(dst, anyValInvalid)
	}
}

func decodeAnyElement(d *ckptDec) (stream.Element, error) {
	kind, err := d.byteVal("element kind")
	if err != nil {
		return stream.Element{}, err
	}
	switch kind {
	case anyElemAbsent:
		return stream.Element{}, nil
	case anyElemTuple:
		n, err := d.count("tuple arity")
		if err != nil {
			return stream.Element{}, err
		}
		values := make([]stream.Value, n)
		for i := range values {
			if values[i], err = decodeAnyValue(d); err != nil {
				return stream.Element{}, err
			}
		}
		return stream.TupleElement(stream.NewTuple(values...)), nil
	case anyElemPunct:
		n, err := d.count("punctuation arity")
		if err != nil {
			return stream.Element{}, err
		}
		pats := make([]stream.Pattern, n)
		for i := range pats {
			pk, err := d.byteVal("pattern kind")
			if err != nil {
				return stream.Element{}, err
			}
			switch pk {
			case anyPatWildcard:
				pats[i] = stream.Wildcard()
			case anyPatConst, anyPatLeq:
				v, err := decodeAnyValue(d)
				if err != nil {
					return stream.Element{}, err
				}
				if pk == anyPatLeq {
					if k := v.Kind(); k != stream.KindInt && k != stream.KindFloat {
						return stream.Element{}, fmt.Errorf("%w: ordered pattern on %s value", ErrCorruptCheckpoint, k)
					}
					pats[i] = stream.Leq(v)
				} else {
					pats[i] = stream.Const(v)
				}
			default:
				return stream.Element{}, fmt.Errorf("%w: bad pattern kind 0x%02x", ErrCorruptCheckpoint, pk)
			}
		}
		p, err := stream.NewPunctuation(pats...)
		if err != nil {
			return stream.Element{}, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
		}
		return stream.PunctElement(p), nil
	default:
		return stream.Element{}, fmt.Errorf("%w: bad element kind 0x%02x", ErrCorruptCheckpoint, kind)
	}
}

func decodeAnyValue(d *ckptDec) (stream.Value, error) {
	kind, err := d.byteVal("value kind")
	if err != nil {
		return stream.Value{}, err
	}
	switch kind {
	case anyValInt:
		b, err := d.take(8)
		if err != nil {
			return stream.Value{}, err
		}
		return stream.Int(int64(binary.LittleEndian.Uint64(b))), nil
	case anyValFloat:
		b, err := d.take(8)
		if err != nil {
			return stream.Value{}, err
		}
		return stream.Float(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case anyValString:
		n, err := d.count("string length")
		if err != nil {
			return stream.Value{}, err
		}
		b, err := d.take(n)
		if err != nil {
			return stream.Value{}, err
		}
		return stream.Str(string(b)), nil
	case anyValInvalid:
		return stream.Value{}, nil
	default:
		return stream.Value{}, fmt.Errorf("%w: bad value kind 0x%02x", ErrCorruptCheckpoint, kind)
	}
}

func appendCkptString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ckptDec is a bounds-checked cursor over a checkpoint body; every
// failure wraps ErrCorruptCheckpoint.
type ckptDec struct {
	buf []byte
	off int
}

func (d *ckptDec) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad %s at byte %d", ErrCorruptCheckpoint, what, d.off)
	}
	d.off += n
	return v, nil
}

// count decodes a collection size bounded by the bytes remaining, so a
// corrupt count cannot drive a huge allocation.
func (d *ckptDec) count(what string) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.buf)-d.off) {
		return 0, fmt.Errorf("%w: %s %d exceeds remaining %d bytes", ErrCorruptCheckpoint, what, v, len(d.buf)-d.off)
	}
	return int(v), nil
}

func (d *ckptDec) take(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf)-d.off {
		return nil, fmt.Errorf("%w: truncated at byte %d (want %d more)", ErrCorruptCheckpoint, d.off, n)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *ckptDec) byteVal(what string) (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("%w: truncated %s at byte %d", ErrCorruptCheckpoint, what, d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *ckptDec) str(what string) (string, error) {
	n, err := d.count(what)
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
