package workload

import (
	"fmt"
	"hash/fnv"
	"testing"

	"punctsafe/exec"
	"punctsafe/safety"
	"punctsafe/stream"
)

// TestAuctionGeneratorInvariants: items are unique, every bid references
// an already-posted item, and punctuation promises are honored (no bid
// for an item after its close punctuation; no item after its item
// punctuation).
func TestAuctionGeneratorInvariants(t *testing.T) {
	inputs := Auction(AuctionConfig{
		Items: 300, MaxBidsPerItem: 7, OpenWindow: 6,
		PunctuateItems: true, PunctuateClose: true, Seed: 5,
	})
	itemsSeen := make(map[int64]bool)
	itemPunct := make(map[int64]bool)
	bidClosed := make(map[int64]bool)
	for _, in := range inputs {
		switch {
		case in.Stream == "item" && !in.Elem.IsPunct():
			id := in.Elem.Tuple().Values[1].AsInt()
			if itemsSeen[id] {
				t.Fatalf("duplicate itemid %d", id)
			}
			if itemPunct[id] {
				t.Fatalf("item %d arrived after its punctuation", id)
			}
			itemsSeen[id] = true
		case in.Stream == "item":
			itemPunct[in.Elem.Punct().Pattern(1).Value().AsInt()] = true
		case in.Stream == "bid" && !in.Elem.IsPunct():
			id := in.Elem.Tuple().Values[1].AsInt()
			if !itemsSeen[id] {
				t.Fatalf("bid for unposted item %d", id)
			}
			if bidClosed[id] {
				t.Fatalf("bid for item %d after its close punctuation", id)
			}
		case in.Stream == "bid":
			bidClosed[in.Elem.Punct().Pattern(1).Value().AsInt()] = true
		}
	}
	if len(itemsSeen) != 300 {
		t.Fatalf("items generated = %d", len(itemsSeen))
	}
	if len(bidClosed) != 300 {
		t.Fatalf("auctions closed = %d, want all", len(bidClosed))
	}
	// Determinism: same seed, same workload.
	again := Auction(AuctionConfig{
		Items: 300, MaxBidsPerItem: 7, OpenWindow: 6,
		PunctuateItems: true, PunctuateClose: true, Seed: 5,
	})
	if len(again) != len(inputs) {
		t.Fatal("generator must be deterministic per seed")
	}
}

// TestNetMonGeneratorInvariants: packets only for announced flows, none
// after the flow-end punctuation.
func TestNetMonGeneratorInvariants(t *testing.T) {
	inputs := NetMon(NetMonConfig{
		Flows: 200, MaxPktsPerFlow: 9, OpenWindow: 7,
		PunctuateFlowEnd: true, PunctuateConn: true, Seed: 3,
	})
	type key struct{ src, port int64 }
	announced := make(map[key]bool)
	ended := make(map[key]bool)
	pkts := 0
	for _, in := range inputs {
		switch {
		case in.Stream == "conn" && !in.Elem.IsPunct():
			tu := in.Elem.Tuple()
			announced[key{tu.Values[0].AsInt(), tu.Values[1].AsInt()}] = true
		case in.Stream == "pkt" && !in.Elem.IsPunct():
			tu := in.Elem.Tuple()
			k := key{tu.Values[0].AsInt(), tu.Values[1].AsInt()}
			if !announced[k] {
				t.Fatalf("packet for unannounced flow %v", k)
			}
			if ended[k] {
				t.Fatalf("packet after end punctuation for %v", k)
			}
			pkts++
		case in.Stream == "pkt":
			p := in.Elem.Punct()
			ended[key{p.Pattern(0).Value().AsInt(), p.Pattern(1).Value().AsInt()}] = true
		}
	}
	if len(ended) != 200 {
		t.Fatalf("flows ended = %d, want all", len(ended))
	}
	if pkts == 0 {
		t.Fatal("no packets generated")
	}
}

// TestSyntheticTopologies: each topology builds the expected shape and is
// safe under the all-join-attrs scheme set.
func TestSyntheticTopologies(t *testing.T) {
	cases := []struct {
		topo  Topology
		k     int
		preds int
	}{
		{Chain, 4, 3},
		{Cycle, 4, 4},
		{Star, 5, 4},
		{Clique, 4, 6},
	}
	for _, c := range cases {
		q, err := SyntheticQuery(c.topo, c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.topo, err)
		}
		if q.N() != c.k || len(q.Predicates()) != c.preds {
			t.Fatalf("%s: n=%d preds=%d, want n=%d preds=%d",
				c.topo, q.N(), len(q.Predicates()), c.k, c.preds)
		}
		set := AllJoinAttrSchemes(q)
		if !safety.Transform(q, set).SingleNode() {
			t.Fatalf("%s fully punctuated must be safe", c.topo)
		}
		minimal := MinimalSchemes(q, set)
		if !safety.Transform(q, minimal).SingleNode() {
			t.Fatalf("%s minimal scheme set must stay safe", c.topo)
		}
		if minimal.Len() > set.Len() {
			t.Fatalf("%s minimal %d > full %d", c.topo, minimal.Len(), set.Len())
		}
		// Dropping any one scheme from the minimal set must break safety.
		all := minimal.All()
		for i := range all {
			trial := append(append([]stream.Scheme(nil), all[:i]...), all[i+1:]...)
			if safety.Transform(q, stream.NewSchemeSet(trial...)).SingleNode() {
				t.Fatalf("%s: minimal set is not minimal (scheme %s removable)", c.topo, all[i])
			}
		}
	}
	if _, err := SyntheticQuery(Chain, 1); err == nil {
		t.Error("k=1 must fail")
	}
	if _, err := SyntheticQuery("pentagram", 4); err == nil {
		t.Error("unknown topology must fail")
	}
}

// TestClosedWorkloadDrains: a fully punctuated closed workload drains the
// MJoin over every topology.
func TestClosedWorkloadDrains(t *testing.T) {
	for _, topo := range []Topology{Chain, Cycle, Star} {
		q, err := SyntheticQuery(topo, 3)
		if err != nil {
			t.Fatal(err)
		}
		schemes := AllJoinAttrSchemes(q)
		inputs := Closed(q, schemes, ClosedConfig{Rounds: 6, TuplesPerRound: 4, Window: 3, PunctFraction: 1, Seed: 9})
		feed, err := NewFeed(q, inputs)
		if err != nil {
			t.Fatal(err)
		}
		m, err := exec.NewMJoin(exec.Config{Query: q, Schemes: schemes})
		if err != nil {
			t.Fatal(err)
		}
		results := 0
		err = feed.Each(func(i int, e stream.Element) error {
			outs, err := m.Push(i, e)
			for _, o := range outs {
				if !o.IsPunct() {
					results++
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.StatsSnapshot().TotalState(); got != 0 {
			t.Errorf("%s: state should drain, has %d (stats %s)", topo, got, m.StatsSnapshot())
		}
		if results == 0 {
			t.Errorf("%s: workload produced no results; generator broken", topo)
		}
	}
}

// TestClosedWorkloadPartialPunctuation: with PunctFraction=0 nothing is
// punctuated and nothing purges.
func TestClosedWorkloadPartialPunctuation(t *testing.T) {
	q, err := SyntheticQuery(Chain, 3)
	if err != nil {
		t.Fatal(err)
	}
	schemes := AllJoinAttrSchemes(q)
	inputs := Closed(q, schemes, ClosedConfig{Rounds: 5, TuplesPerRound: 3, Window: 2, PunctFraction: 0, Seed: 1})
	if s := Summarize(inputs); s.Puncts != 0 || s.Tuples != 5*3*3 {
		t.Fatalf("summary = %+v", s)
	}
	full := Closed(q, schemes, ClosedConfig{Rounds: 5, TuplesPerRound: 3, Window: 2, PunctFraction: 1, Seed: 1})
	if s := Summarize(full); s.Puncts == 0 {
		t.Fatalf("full workload must punctuate, summary = %+v", s)
	}
}

// TestFeedRejectsUnknownStream.
func TestFeedRejectsUnknownStream(t *testing.T) {
	q := AuctionQuery()
	_, err := NewFeed(q, []Input{{Stream: "nope", Elem: stream.TupleElement(stream.NewTuple(stream.Int(1)))}})
	if err == nil {
		t.Fatal("unknown stream must be rejected")
	}
}

// TestSensorGolden pins the sensor feed element for element: the values
// were recorded from the generator that rescanned every pending reading
// at every step, before readings were bucketed by emission step.
func TestSensorGolden(t *testing.T) {
	feed := Sensor(SensorConfig{Epochs: 200, ReadingsPerEpoch: 3, Disorder: 12,
		HeartbeatEvery: 5, Heartbeats: true, Seed: 42})
	render := func(in Input) string { return in.Stream + "|" + in.Elem.String() }
	if len(feed) != 1282 {
		t.Fatalf("feed has %d elements, want 1282", len(feed))
	}
	head := []string{
		"temp|tuple(1, 21.64010947684509)",
		"humid|tuple(1, 68.83122474549268)",
		"temp|tuple(0, 23.128771359243785)",
		"humid|tuple(3, 51.74331868018004)",
	}
	tail := []string{
		"temp|punct(<=197, *)",
		"humid|punct(<=197, *)",
		"temp|punct(<=199, *)",
		"humid|punct(<=199, *)",
	}
	for i, want := range head {
		if got := render(feed[i]); got != want {
			t.Errorf("element %d = %s, want %s", i, got, want)
		}
	}
	for i, want := range tail {
		if got := render(feed[len(feed)-len(tail)+i]); got != want {
			t.Errorf("element %d from the end = %s, want %s", len(tail)-i, got, want)
		}
	}
	h := fnv.New64a()
	for _, in := range feed {
		fmt.Fprintf(h, "%s\n", render(in))
	}
	if got := h.Sum64(); got != 0x5aaae65490fe2c08 {
		t.Errorf("feed hash %#x, want 0x5aaae65490fe2c08", got)
	}
}
