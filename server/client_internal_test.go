package server

// White-box tests for the dial session's backoff progression. The
// subtle contract: backoff state persists across connect() calls (a
// client stuck in one outage keeps escalating), but resets after any
// successful handshake — a long-lived client that reconnects after a
// quiet hour must start from Backoff again, not the inflated tail of
// its last outage.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"punctsafe/stream"
)

// fakeClockDialer returns a Dialer whose sleeps are recorded instead of
// slept and whose jitter is the identity (Rand n -> n/2 makes
// jitter(t) = t/2 + t/2 = t exactly).
func fakeClockDialer(sleeps *[]time.Duration) *Dialer {
	return &Dialer{
		MaxRetries: 16,
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 80 * time.Millisecond,
		Sleep:      func(d time.Duration) { *sleeps = append(*sleeps, d) },
		Rand:       func(n int64) int64 { return n / 2 },
	}
}

func ms(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func sameDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBackoffResetsAfterSuccess drives two outages separated by a
// successful session and requires the second outage to restart the
// progression from Backoff.
func TestBackoffResetsAfterSuccess(t *testing.T) {
	var sleeps []time.Duration
	d := fakeClockDialer(&sleeps)
	attempt := 0
	d.Dial = func() (net.Conn, error) {
		attempt++
		if attempt%4 != 0 { // three failures, then a success
			return nil, errors.New("connection refused")
		}
		client, server := net.Pipe()
		server.Close()
		return client, nil
	}
	ok := func(net.Conn, *bufio.Reader) error { return nil }

	sess := d.newSession()
	c, _, err := d.connect(sess, ok)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if want := ms(10, 20, 40); !sameDurations(sleeps, want) {
		t.Fatalf("first outage slept %v, want %v", sleeps, want)
	}

	// The session reconnects later: the progression must restart at
	// Backoff, not resume at the doubled tail of the last outage.
	sleeps = nil
	c, _, err = d.connect(sess, ok)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if want := ms(10, 20, 40); !sameDurations(sleeps, want) {
		t.Fatalf("post-success outage slept %v, want %v (backoff did not reset)", sleeps, want)
	}
}

// TestBackoffCapsAndPersistsAcrossCalls pins the other half of the
// contract: without an intervening success the progression continues
// across connect() calls and saturates at MaxBackoff.
func TestBackoffCapsAndPersistsAcrossCalls(t *testing.T) {
	var sleeps []time.Duration
	d := fakeClockDialer(&sleeps)
	d.MaxRetries = 5
	down := func() (net.Conn, error) { return nil, errors.New("connection refused") }
	d.Dial = down
	ok := func(net.Conn, *bufio.Reader) error { return nil }

	sess := d.newSession()
	if _, _, err := d.connect(sess, ok); err == nil {
		t.Fatal("connect succeeded with the endpoint down")
	}
	if want := ms(10, 20, 40, 80, 80); !sameDurations(sleeps, want) {
		t.Fatalf("outage slept %v, want %v (cap at MaxBackoff)", sleeps, want)
	}

	// Still no success: the next call continues at the cap.
	sleeps = nil
	if _, _, err := d.connect(sess, ok); err == nil {
		t.Fatal("connect succeeded with the endpoint down")
	}
	if want := ms(80, 80, 80, 80, 80); !sameDurations(sleeps, want) {
		t.Fatalf("continued outage slept %v, want %v (progression lost across calls)", sleeps, want)
	}
}

// TestSubscriberNextAllocs pins what receiving one delivery costs the
// client. The frame around it costs nothing: the payload is read into the
// subscriber's own scratch, which is safe to reuse because decoding copies
// every byte it keeps. A delivery is lent: a result tuple is decoded into
// the subscriber's one value buffer and a punctuation's constants into its
// one pattern buffer, so two successive deliveries share the buffer, and
// once it is warm a punctuation costs nothing. A string costs one
// allocation the first time, and nothing while the subscriber's string
// table still holds it: a repeated string is shared, a fresh one is not.
func TestSubscriberNextAllocs(t *testing.T) {
	mixed := stream.MustSchema("out",
		stream.Attribute{Name: "k", Kind: stream.KindInt},
		stream.Attribute{Name: "name", Kind: stream.KindString},
		stream.Attribute{Name: "v", Kind: stream.KindFloat})
	numeric := stream.MustSchema("num",
		stream.Attribute{Name: "k", Kind: stream.KindInt},
		stream.Attribute{Name: "v", Kind: stream.KindFloat})
	for _, tc := range []struct {
		name   string
		schema *stream.Schema
		elem   func(seq uint64) stream.Element // the delivery numbered seq
		allocs float64
	}{
		{"string-free tuple", numeric, func(uint64) stream.Element {
			return stream.TupleElement(stream.NewTuple(stream.Int(7), stream.Float(1.5)))
		}, 0},
		{"tuple with a string", mixed, func(uint64) stream.Element {
			return stream.TupleElement(stream.NewTuple(stream.Int(7), stream.Str("a string long enough to matter"), stream.Float(1.5)))
		}, 0},
		{"tuple with a fresh string", mixed, func(seq uint64) stream.Element {
			return stream.TupleElement(stream.NewTuple(stream.Int(7), stream.Str(fmt.Sprintf("fresh string %06d", seq)), stream.Float(1.5)))
		}, 1},
		{"punctuation", mixed, func(seq uint64) stream.Element {
			return stream.PunctElement(stream.MustPunctuation(stream.Const(stream.Int(int64(seq))), stream.Wildcard(), stream.Const(stream.Float(1.5))))
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			codec := stream.NewCodec(tc.schema)
			const n = 200
			var wire []byte
			for seq := uint64(1); seq <= n+2; seq++ {
				payload, err := codec.Encode(nil, tc.elem(seq))
				if err != nil {
					t.Fatal(err)
				}
				wire = binary.AppendUvarint(wire, seq)
				wire = binary.AppendUvarint(wire, uint64(len(payload)))
				wire = append(wire, payload...)
			}
			conn, peer := net.Pipe()
			defer peer.Close()
			defer conn.Close()
			s := &Subscriber{conn: conn, br: bufio.NewReader(bytes.NewReader(wire)), schema: tc.schema, codec: codec}
			next := func() Delivery {
				d, err := s.Next()
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			var last Delivery
			allocs := testing.AllocsPerRun(n-1, func() { last = next() }) // AllocsPerRun adds a warm-up call
			if want := tc.elem(n); last.Seq != n || last.Elem.String() != want.String() {
				t.Fatalf("last delivery %d|%s, want %d|%s", last.Seq, last.Elem, n, want)
			}
			if allocs != tc.allocs {
				t.Errorf("Next allocates %.0f times per delivery of %s, want %.0f", allocs, last.Elem, tc.allocs)
			}
			a, b := next().Elem, next().Elem
			if a.IsPunct() {
				if a.String() != b.String() {
					t.Errorf("delivery %s still reads its own constants after %s; Next must reuse its pattern buffer", a, b)
				}
				return
			}
			if &a.Tuple().Values[0] != &b.Tuple().Values[0] {
				t.Error("two successive deliveries hold Values in different arrays; Next must reuse its buffer")
			}
		})
	}
}
