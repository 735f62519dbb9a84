package exec

import (
	"errors"
	"testing"

	"punctsafe/stream"
	"punctsafe/workload"
)

// TestEnforcePromisesCatchesViolation: a tuple arriving after its own
// stream punctuated its value is a contract violation.
func TestEnforcePromisesCatchesViolation(t *testing.T) {
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes(), EnforcePromises: true})
	if err != nil {
		t.Fatal(err)
	}
	pushT(t, m, 0, tup(1, 10))
	pushP(t, m, 0, punct(1, -1)) // R promises: no more K=1
	// A K=2 tuple is fine.
	if _, err := m.Push(0, stream.TupleElement(tup(2, 20))); err != nil {
		t.Fatalf("unrelated tuple rejected: %v", err)
	}
	// A K=1 tuple violates the promise.
	_, err = m.Push(0, stream.TupleElement(tup(1, 11)))
	if !errors.Is(err, ErrPromiseViolated) {
		t.Fatalf("want ErrPromiseViolated, got %v", err)
	}
	// The partner stream is unaffected: S may still send K=1.
	if _, err := m.Push(1, stream.TupleElement(tup(1, 100))); err != nil {
		t.Fatalf("partner tuple rejected: %v", err)
	}
}

// TestEnforcePromisesWatermark: the ordered form — readings at or below
// the own-stream watermark are violations; above it they pass.
func TestEnforcePromisesWatermark(t *testing.T) {
	q := workload.SensorQuery()
	m, err := NewMJoin(Config{Query: q, Schemes: workload.SensorSchemes(), EnforcePromises: true})
	if err != nil {
		t.Fatal(err)
	}
	reading := func(epoch int64) stream.Element {
		return stream.TupleElement(stream.NewTuple(stream.Int(epoch), stream.Float(1)))
	}
	pushP(t, m, 0, wmPunct(10)) // temp watermark: epochs <= 10 closed
	if _, err := m.Push(0, reading(11)); err != nil {
		t.Fatalf("epoch 11 should pass: %v", err)
	}
	if _, err := m.Push(0, reading(10)); !errors.Is(err, ErrPromiseViolated) {
		t.Fatalf("epoch 10 must violate, got %v", err)
	}
	if _, err := m.Push(0, reading(3)); !errors.Is(err, ErrPromiseViolated) {
		t.Fatalf("epoch 3 must violate, got %v", err)
	}
	// The humid stream has its own (absent) watermark: unaffected.
	if _, err := m.Push(1, stream.TupleElement(stream.NewTuple(stream.Int(2), stream.Float(1)))); err != nil {
		t.Fatalf("humid epoch 2 should pass: %v", err)
	}
}

// TestEnforcePromisesAcceptsCleanWorkloads: the generators keep their
// promises, so enforcement never fires on them.
func TestEnforcePromisesAcceptsCleanWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    func() (*MJoin, []workload.Input)
	}{
		{"auction", func() (*MJoin, []workload.Input) {
			q := workload.AuctionQuery()
			m, err := NewMJoin(Config{Query: q, Schemes: workload.AuctionSchemes(), EnforcePromises: true})
			if err != nil {
				t.Fatal(err)
			}
			return m, workload.Auction(workload.AuctionConfig{
				Items: 300, MaxBidsPerItem: 5, OpenWindow: 4,
				PunctuateItems: true, PunctuateClose: true, Seed: 61,
			})
		}},
		{"sensors", func() (*MJoin, []workload.Input) {
			q := workload.SensorQuery()
			m, err := NewMJoin(Config{Query: q, Schemes: workload.SensorSchemes(), EnforcePromises: true})
			if err != nil {
				t.Fatal(err)
			}
			return m, workload.Sensor(workload.SensorConfig{
				Epochs: 300, ReadingsPerEpoch: 2, Disorder: 4,
				HeartbeatEvery: 3, Heartbeats: true, Seed: 62,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, inputs := tc.q()
			feed, err := workload.NewFeed(m.q, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := feed.Each(func(i int, e stream.Element) error {
				_, err := m.Push(i, e)
				return err
			}); err != nil {
				t.Fatalf("clean workload must not violate promises: %v", err)
			}
		})
	}
}
