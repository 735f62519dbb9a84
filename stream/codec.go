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
	if len(src) == 0 {
		return Element{}, buf, nil, io.ErrUnexpectedEOF
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
			buf[i], src, err = c.decodeValue(src, c.schema.Attr(i).Kind)
			if err != nil {
				return Element{}, buf, nil, err
			}
		}
		return TupleElement(NewTuple(buf...)), buf, src, nil
	case codecPunct:
		e, rest, err = c.decodePunct(src)
		return e, buf, rest, err
	default:
		return Element{}, buf, nil, fmt.Errorf("stream: codec: bad element kind 0x%02x", kind)
	}
}

// decodePunct is Decode for a punctuation's slots, in a function of its own
// so that its stack buffers do not enlarge the frame every tuple is decoded
// in. What it builds is valid for the schema by construction: one slot per
// attribute, each value decoded as its attribute's kind.
func (c *Codec) decodePunct(src []byte) (Element, []byte, error) {
	var posBuf [8]int
	var constBuf [8]Pattern
	pos, consts := posBuf[:0], constBuf[:0]
	for i := range c.schema.Arity() {
		if len(src) == 0 {
			return Element{}, nil, io.ErrUnexpectedEOF
		}
		slot := src[0]
		src = src[1:]
		switch slot {
		case slotWildcard:
		case slotConst, slotLeq:
			if k := c.schema.Attr(i).Kind; slot == slotLeq && k != KindInt && k != KindFloat {
				return Element{}, nil, fmt.Errorf("stream: codec: ordered pattern on non-numeric attribute %q", c.schema.Attr(i).Name)
			}
			v, rest, err := c.decodeValue(src, c.schema.Attr(i).Kind)
			if err != nil {
				return Element{}, nil, err
			}
			src = rest
			pat := Const(v)
			if slot == slotLeq {
				pat = Leq(v)
			}
			pos, consts = append(pos, i), append(consts, pat)
		default:
			return Element{}, nil, fmt.Errorf("stream: codec: bad pattern slot 0x%02x", slot)
		}
	}
	if c.shapes.Load() == nil {
		c.shapes.CompareAndSwap(nil, new(shapeTable))
	}
	p, err := newPunctuation(c.schema.Arity(), pos, consts, c.shapes.Load())
	if err != nil {
		return Element{}, nil, fmt.Errorf("stream: codec: %w", err)
	}
	return PunctElement(p), src, nil
}

func (c *Codec) decodeValue(src []byte, k Kind) (Value, []byte, error) {
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
		return Str(string(src[used : used+int(n)])), src[used+int(n):], nil
	default:
		return Value{}, nil, fmt.Errorf("stream: codec: invalid kind %d", k)
	}
}

// shapeTable interns the shapes of one codec's decoded punctuations, so
// each distinct set of positions is allocated once. The positions come
// off the wire, so the table is capped; past the cap every decoded
// punctuation gets a shape of its own. Slots fill in order and are never
// cleared, so a lookup reads them without locking up to the first empty.
type shapeTable [64]atomic.Pointer[shape]

// intern returns the shape of an arity-wide punctuation constrained at
// pos, copying pos if the shape is new. All shapes in one table have one
// arity, its schema's; a nil table interns nothing.
func (t *shapeTable) intern(arity int, pos []int) *shape {
	for i := 0; t != nil && i < len(t); i++ {
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
