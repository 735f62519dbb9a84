package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
type Codec struct {
	schema *Schema
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
		for _, pat := range p.Patterns {
			switch {
			case pat.IsWildcard():
				dst = append(dst, slotWildcard)
			case pat.IsLeq():
				dst = append(dst, slotLeq)
				dst = appendValue(dst, pat.Value())
			default:
				dst = append(dst, slotConst)
				dst = appendValue(dst, pat.Value())
			}
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
// and the remaining bytes.
func (c *Codec) Decode(src []byte) (Element, []byte, error) {
	if len(src) == 0 {
		return Element{}, nil, io.ErrUnexpectedEOF
	}
	kind := src[0]
	src = src[1:]
	switch kind {
	case codecTuple:
		values := make([]Value, c.schema.Arity())
		var err error
		for i := range values {
			values[i], src, err = c.decodeValue(src, c.schema.Attr(i).Kind)
			if err != nil {
				return Element{}, nil, err
			}
		}
		return TupleElement(NewTuple(values...)), src, nil
	case codecPunct:
		pats := make([]Pattern, c.schema.Arity())
		for i := range pats {
			if len(src) == 0 {
				return Element{}, nil, io.ErrUnexpectedEOF
			}
			slot := src[0]
			src = src[1:]
			switch slot {
			case slotWildcard:
				pats[i] = Wildcard()
			case slotConst, slotLeq:
				if k := c.schema.Attr(i).Kind; slot == slotLeq && k != KindInt && k != KindFloat {
					return Element{}, nil, fmt.Errorf("stream: codec: ordered pattern on non-numeric attribute %q", c.schema.Attr(i).Name)
				}
				var v Value
				var err error
				v, src, err = c.decodeValue(src, c.schema.Attr(i).Kind)
				if err != nil {
					return Element{}, nil, err
				}
				if slot == slotLeq {
					pats[i] = Leq(v)
				} else {
					pats[i] = Const(v)
				}
			default:
				return Element{}, nil, fmt.Errorf("stream: codec: bad pattern slot 0x%02x", slot)
			}
		}
		p, err := NewPunctuation(pats...)
		if err != nil {
			return Element{}, nil, fmt.Errorf("stream: codec: %w", err)
		}
		if err := p.Validate(c.schema); err != nil {
			return Element{}, nil, fmt.Errorf("stream: codec: %w", err)
		}
		return PunctElement(p), src, nil
	default:
		return Element{}, nil, fmt.Errorf("stream: codec: bad element kind 0x%02x", kind)
	}
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
		return Str(string(src[used : used+int(n)])), src[used+int(n):], nil
	default:
		return Value{}, nil, fmt.Errorf("stream: codec: invalid kind %d", k)
	}
}
