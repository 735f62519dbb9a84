package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"
)

// Codec serializes stream elements against a fixed schema, so the input
// manager can accept tuples and punctuations from the application
// environment over a wire. The format is schema-directed and compact:
//
//	element   = kind byte (0 tuple, 1 punctuation) , payload
//	tuple     = value*arity
//	punct     = slot*arity           slot = 0x00 "*" | 0x01 value
//	value     = int64 LE | float64 bits LE | uvarint len + bytes
//
// Decoding validates against the schema, so a corrupted or mis-schema'd
// payload fails loudly instead of producing garbage elements.
//
// A Codec is safe for concurrent use. It interns the shapes of the
// punctuations it decodes, so a decoded punctuation allocates only its
// constants.
type Codec struct {
	schema *Schema
	// shapes is allocated by the first punctuation decoded, so a codec
	// that only encodes stays two words.
	shapes atomic.Pointer[shapeTable]
}

// NewCodec returns a codec bound to the schema.
func NewCodec(s *Schema) *Codec { return &Codec{schema: s} }

const (
	codecTuple byte = 0
	codecPunct byte = 1

	slotWildcard byte = 0
	slotConst    byte = 1
	slotLeq      byte = 2
)

// Encode appends the element's wire form to dst and returns the extended
// slice.
func (c *Codec) Encode(dst []byte, e Element) ([]byte, error) {
	if e.IsPunct() {
		p := e.Punct()
		if err := p.Validate(c.schema); err != nil {
			return nil, err
		}
		dst = append(dst, codecPunct)
		idx := p.ConstIndexes()
		for i, k := 0, 0; i < p.Arity(); i++ {
			if k == len(idx) || idx[k] != i {
				dst = append(dst, slotWildcard)
				continue
			}
			pat := p.consts[k]
			k++
			if pat.IsLeq() {
				dst = append(dst, slotLeq)
			} else {
				dst = append(dst, slotConst)
			}
			dst = appendValue(dst, pat.Value())
		}
		return dst, nil
	}
	t := e.Tuple()
	if err := t.Validate(c.schema); err != nil {
		return nil, err
	}
	dst = append(dst, codecTuple)
	for _, v := range t.Values {
		dst = appendValue(dst, v)
	}
	return dst, nil
}

func appendValue(dst []byte, v Value) []byte {
	switch v.Kind() {
	case KindInt, KindFloat:
		return binary.LittleEndian.AppendUint64(dst, v.Bits())
	case KindString:
		s := v.str()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	default:
		panic("stream: encode of invalid value")
	}
}

// Decode parses one element from the front of src, returning the element
// and the remaining bytes. The element is the caller's: a tuple's Values
// are allocated for it.
func (c *Codec) Decode(src []byte) (Element, []byte, error) {
	e, _, rest, err := c.DecodeInto(nil, src)
	return e, rest, err
}

// DecodeInto is Decode for a caller that is done with each tuple before it
// decodes the next: a tuple's Values are decoded into buf's storage, grown
// only when its capacity is below the schema's arity, and the buffer is
// returned for the next call whatever was decoded. The tuple is valid
// until the buffer is reused; its strings are its own. A punctuation is
// never decoded into the buffer and is the caller's, as from Decode. On
// error the buffer's contents are unspecified.
func (c *Codec) DecodeInto(buf []Value, src []byte) (e Element, vals []Value, rest []byte, err error) {
	return c.decode(buf, src, nil)
}

// DecodeBuffers is what DecodeLent reuses from one call to the next: the
// values of the last tuple, the constants of the last punctuation, and a
// table of the strings it decoded recently. The zero value is ready for
// use; it is not safe for concurrent use.
type DecodeBuffers struct {
	vals []Value
	pats []Pattern
	strs stringTable
}

// DecodeLent is Decode for a caller that is done with each element before
// it decodes the next: a tuple's Values and a punctuation's constants are
// decoded into b, valid until its next use, and a caller that keeps the
// element copies it (Element.Clone). A string equal to one b decoded
// recently shares that string instead of allocating; strings are
// immutable, so they are the caller's either way.
func (c *Codec) DecodeLent(b *DecodeBuffers, src []byte) (Element, []byte, error) {
	e, vals, rest, err := c.decode(b.vals, src, b)
	b.vals = vals
	return e, rest, err
}

// decode is DecodeInto and, given b, DecodeLent: it decodes a tuple into
// buf, and a punctuation into b's constants or, without b, into constants
// of its own. Strings go through b's table when there is one.
func (c *Codec) decode(buf []Value, src []byte, b *DecodeBuffers) (e Element, vals []Value, rest []byte, err error) {
	if len(src) == 0 {
		return Element{}, buf, nil, io.ErrUnexpectedEOF
	}
	var strs *stringTable
	if b != nil {
		strs = &b.strs
	}
	kind := src[0]
	src = src[1:]
	switch kind {
	case codecTuple:
		if n := c.schema.Arity(); cap(buf) < n {
			buf = make([]Value, n)
		} else {
			buf = buf[:n]
		}
		for i := range buf {
			buf[i], src, err = c.decodeValue(src, c.schema.Attr(i).Kind, strs)
			if err != nil {
				return Element{}, buf, nil, err
			}
		}
		return TupleElement(NewTuple(buf...)), buf, src, nil
	case codecPunct:
		var p Punctuation
		if b == nil {
			p, rest, err = c.decodeOwnPunct(src)
		} else {
			p.shape, b.pats, rest, err = c.decodePunct(src, b.pats[:0], strs)
			p.consts = b.pats
		}
		if err != nil {
			return Element{}, buf, nil, err
		}
		return PunctElement(p), buf, rest, nil
	default:
		return Element{}, buf, nil, fmt.Errorf("stream: codec: bad element kind 0x%02x", kind)
	}
}

// decodeOwnPunct is decodePunct into constants of the punctuation's own,
// collected on a stack buffer of its own frame, so that neither enlarges
// the frame every tuple is decoded in.
func (c *Codec) decodeOwnPunct(src []byte) (Punctuation, []byte, error) {
	var constBuf [8]Pattern
	sh, consts, rest, err := c.decodePunct(src, constBuf[:0], nil)
	if err != nil {
		return Punctuation{}, nil, err
	}
	return Punctuation{shape: sh, consts: slices.Clone(consts)}, rest, nil
}

// decodePunct decodes a punctuation's slots: it returns the punctuation's
// shape and its constants, appended to consts. What it decodes is valid
// for the schema by construction: one slot per attribute, each value
// decoded as its attribute's kind.
func (c *Codec) decodePunct(src []byte, consts []Pattern, strs *stringTable) (*shape, []Pattern, []byte, error) {
	var posBuf [8]int
	pos := posBuf[:0]
	for i := range c.schema.Arity() {
		if len(src) == 0 {
			return nil, consts, nil, io.ErrUnexpectedEOF
		}
		slot := src[0]
		src = src[1:]
		switch slot {
		case slotWildcard:
		case slotConst, slotLeq:
			if k := c.schema.Attr(i).Kind; slot == slotLeq && k != KindInt && k != KindFloat {
				return nil, consts, nil, fmt.Errorf("stream: codec: ordered pattern on non-numeric attribute %q", c.schema.Attr(i).Name)
			}
			v, rest, err := c.decodeValue(src, c.schema.Attr(i).Kind, strs)
			if err != nil {
				return nil, consts, nil, err
			}
			src = rest
			pat := Const(v)
			if slot == slotLeq {
				pat = Leq(v)
			}
			pos, consts = append(pos, i), append(consts, pat)
		default:
			return nil, consts, nil, fmt.Errorf("stream: codec: bad pattern slot 0x%02x", slot)
		}
	}
	if len(consts) == 0 {
		return nil, consts, nil, fmt.Errorf("stream: codec: %w", errNoConstraint)
	}
	if c.shapes.Load() == nil {
		c.shapes.CompareAndSwap(nil, new(shapeTable))
	}
	return c.shapes.Load().intern(c.schema.Arity(), pos), consts, src, nil
}

// decodeValue decodes one value of kind k, a string through strs when it
// is not nil.
func (c *Codec) decodeValue(src []byte, k Kind, strs *stringTable) (Value, []byte, error) {
	switch k {
	case KindInt:
		if len(src) < 8 {
			return Value{}, nil, io.ErrUnexpectedEOF
		}
		return Int(int64(binary.LittleEndian.Uint64(src))), src[8:], nil
	case KindFloat:
		if len(src) < 8 {
			return Value{}, nil, io.ErrUnexpectedEOF
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(src))), src[8:], nil
	case KindString:
		n, used := binary.Uvarint(src)
		if used <= 0 || uint64(len(src)-used) < n {
			return Value{}, nil, io.ErrUnexpectedEOF
		}
		if used > 1 && src[used-1] == 0 { // binary.Uvarint accepts padding
			return Value{}, nil, fmt.Errorf("stream: codec: string length not minimally encoded")
		}
		return Str(strs.str(src[used : used+int(n)])), src[used+int(n):], nil
	default:
		return Value{}, nil, fmt.Errorf("stream: codec: invalid kind %d", k)
	}
}

// stringTable shares the strings a lending decoder sees repeat: a result
// of a 1:N join repeats the 1-side's strings N times. It is direct-mapped
// by a hash of the bytes, and a slot is a hit only when its string has
// the same bytes; a miss allocates the string and replaces the slot. It
// holds at most strTableSlots strings of at most strTableMaxLen bytes;
// longer strings bypass it.
type stringTable [strTableSlots]string

const (
	strTableSlots  = 256 // a power of two
	strTableMaxLen = 64
)

// str returns the string of b's bytes, shared with the table's slot for
// them when it holds them, and recorded there otherwise. A nil table
// allocates every string.
func (t *stringTable) str(b []byte) string {
	if t == nil || len(b) > strTableMaxLen {
		return string(b)
	}
	slot := &t[strSlot(b)]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// strSlot is the table slot of b's bytes: an FNV-1a hash, as Value.Hash
// uses, so which strings collide does not vary from run to run.
func strSlot(b []byte) int {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return int(h & (strTableSlots - 1))
}

// shapeTable interns the shapes of one codec's decoded punctuations, so
// each distinct set of positions is allocated once. The positions come
// off the wire, so the table is capped; past the cap every decoded
// punctuation gets a shape of its own. Slots fill in order and are never
// cleared, so a lookup reads them without locking up to the first empty.
type shapeTable [64]atomic.Pointer[shape]

// intern returns the shape of an arity-wide punctuation constrained at
// pos, copying pos if the shape is new. All shapes in one table have one
// arity, its schema's.
func (t *shapeTable) intern(arity int, pos []int) *shape {
	for i := range t {
		sh := t[i].Load()
		if sh == nil {
			sh = &shape{arity: arity, idx: slices.Clone(pos)}
			if t[i].CompareAndSwap(nil, sh) {
				return sh
			}
			sh = t[i].Load() // another decoder filled the slot first
		}
		if slices.Equal(sh.idx, pos) {
			return sh
		}
	}
	return &shape{arity: arity, idx: slices.Clone(pos)}
}
