package engine

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"punctsafe/workload"
)

// FuzzWireReader feeds arbitrary bytes to both reader modes. Invariants:
// neither mode panics or loops forever; the lenient reader always reaches
// a clean io.EOF on an in-memory source (every corruption is skippable);
// and the lenient reader recovers at least as many frames as the strict
// one (it can only skip damage, never good frames the strict mode kept).
func FuzzWireReader(f *testing.F) {
	wire, _ := buildAuctionWire(f, 4)
	f.Add(wire)                                  // a fully valid wire
	f.Add(wire[:len(wire)-3])                    // truncated final frame
	f.Add(wire[1:])                              // desynced start
	f.Add([]byte{})                              // empty input
	f.Add([]byte{0x00})                          // zero-length name, missing payload
	f.Add(oversizedFrame())                      // absurd declared payload length
	f.Add(unknownStreamFrame(wire))              // unknown stream then valid frames
	f.Add(bytes.Repeat([]byte{0xFF}, 64))        // varint overflow soup
	f.Add(append(orderedStringFrame(), wire...)) // "<=" on a string attribute

	item, bid := workload.AuctionSchemas()
	f.Fuzz(func(t *testing.T, data []byte) {
		strict := NewWireReader(bytes.NewReader(data), item, bid)
		strictFrames := 0
		for {
			_, err := strict.Read()
			if err != nil {
				break
			}
			strictFrames++
		}

		faults := 0
		lenient := NewWireReader(bytes.NewReader(data), item, bid).
			Lenient(func(WireFault) { faults++ })
		lenientFrames := 0
		for {
			_, err := lenient.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("lenient reader failed on in-memory input: %v", err)
			}
			lenientFrames++
		}
		if lenientFrames < strictFrames {
			t.Fatalf("lenient recovered %d frames, strict %d", lenientFrames, strictFrames)
		}
		if len(data) > 0 && lenientFrames == 0 && faults == 0 {
			t.Fatalf("%d bytes vanished without frames or faults", len(data))
		}
	})
}

// oversizedFrame declares a payload far past the wire limit.
func oversizedFrame() []byte {
	var out []byte
	out = binary.AppendUvarint(out, 4)
	out = append(out, "item"...)
	out = binary.AppendUvarint(out, 1<<40)
	return out
}

// unknownStreamFrame prefixes a valid wire with a frame for a stream the
// reader does not know.
func unknownStreamFrame(valid []byte) []byte {
	var out []byte
	out = binary.AppendUvarint(out, 5)
	out = append(out, "ghost"...)
	out = binary.AppendUvarint(out, 2)
	out = append(out, 0xAB, 0xCD)
	return append(out, valid...)
}

// orderedStringFrame is a well-framed item punctuation whose "<=" slot
// sits on the string attribute name: a pattern the data model cannot hold.
func orderedStringFrame() []byte {
	payload := []byte{1, 0, 0, 2, 1, 'x', 0} // punct: *, *, <="x", *
	var out []byte
	out = binary.AppendUvarint(out, 4)
	out = append(out, "item"...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// TestWireReaderOrderedPatternOnString: the hostile frame is a decode
// error in strict mode and one skipped fault in lenient mode, never a
// panic, and the frames behind it still arrive.
func TestWireReaderOrderedPatternOnString(t *testing.T) {
	wire, _ := buildAuctionWire(t, 2)
	data := append(orderedStringFrame(), wire...)
	item, bid := workload.AuctionSchemas()
	if _, err := NewWireReader(bytes.NewReader(data), item, bid).Read(); err == nil {
		t.Fatal("strict reader accepted \"<=\" on a string attribute")
	}
	faults, frames := 0, 0
	lenient := NewWireReader(bytes.NewReader(data), item, bid).Lenient(func(WireFault) { faults++ })
	for {
		if _, err := lenient.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if faults != 1 || frames == 0 {
		t.Fatalf("lenient reader: %d faults, %d frames; want 1 fault and the valid frames", faults, frames)
	}
}
