package stream

import "fmt"

// Element is one item of a punctuated data stream: either a tuple or a
// punctuation, in arrival order on a single feed (§2.3 treats punctuations
// as data interleaved with tuples). It is a punctuation exactly when its
// punctuation has a shape, so the zero Element is a tuple element.
type Element struct {
	tuple Tuple
	p     Punctuation
}

// TupleElement wraps a tuple as a stream element.
func TupleElement(t Tuple) Element { return Element{tuple: t} }

// PunctElement wraps a punctuation as a stream element.
func PunctElement(p Punctuation) Element { return Element{p: p} }

// IsPunct reports whether the element is a punctuation.
func (e Element) IsPunct() bool { return e.p.shape != nil }

// Tuple returns the tuple payload; it panics on a punctuation element.
func (e Element) Tuple() Tuple {
	if e.IsPunct() {
		panic("stream: Tuple() on punctuation element")
	}
	return e.tuple
}

// Punct returns the punctuation payload; it panics on a tuple element.
func (e Element) Punct() Punctuation {
	if !e.IsPunct() {
		panic("stream: Punct() on tuple element")
	}
	return e.p
}

// String renders the element.
func (e Element) String() string {
	if e.IsPunct() {
		return fmt.Sprintf("punct%s", e.p)
	}
	return fmt.Sprintf("tuple%s", e.tuple)
}
