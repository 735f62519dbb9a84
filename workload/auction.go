package workload

import (
	"fmt"
	"math/rand"

	"punctsafe/query"
	"punctsafe/stream"
)

// AuctionConfig parameterizes the online-auction scenario of Example 1:
// sellers post items, buyers post bids, and the continuous query joins
// the two streams on itemid.
type AuctionConfig struct {
	// Items is the total number of auctioned items.
	Items int
	// MaxBidsPerItem bounds the bids drawn (uniformly in [1, max]) for
	// each item.
	MaxBidsPerItem int
	// OpenWindow is the number of auctions open concurrently: an item's
	// bids interleave with those of the next OpenWindow-1 items, and its
	// auction closes (bid punctuation) once it leaves the window.
	OpenWindow int
	// PunctuateItems, when true, emits an item-stream punctuation on
	// itemid right after each item tuple (each itemid is unique in the
	// item stream, so the promise holds by construction).
	PunctuateItems bool
	// PunctuateClose, when true, emits a bid-stream punctuation on itemid
	// when an auction closes ("no more bids for item X").
	PunctuateClose bool
	// Skew, when > 0, draws each auction's bid count from a Zipf
	// distribution with exponent 1+Skew over [1, 64*MaxBidsPerItem]
	// instead of uniformly over [1, MaxBidsPerItem]: most auctions see a
	// bid or two while a few heavy hitters soak up hundreds, so the join
	// state concentrates on a handful of itemids. Hash-partitioned
	// replicas inherit the key skew as replica skew. Heavy auctions always run to
	// their full bid count (no random force-close under skew).
	Skew float64
	// Seed drives the deterministic generator.
	Seed int64
}

// AuctionSchemas returns the item and bid schemas of Example 1.
func AuctionSchemas() (item, bid *stream.Schema) {
	item = stream.MustSchema("item",
		stream.Attribute{Name: "sellerid", Kind: stream.KindInt},
		stream.Attribute{Name: "itemid", Kind: stream.KindInt},
		stream.Attribute{Name: "name", Kind: stream.KindString},
		stream.Attribute{Name: "initialprice", Kind: stream.KindFloat})
	bid = stream.MustSchema("bid",
		stream.Attribute{Name: "bidderid", Kind: stream.KindInt},
		stream.Attribute{Name: "itemid", Kind: stream.KindInt},
		stream.Attribute{Name: "increase", Kind: stream.KindFloat})
	return item, bid
}

// AuctionQuery returns the Example 1 continuous join query
// item ⨝_itemid bid.
func AuctionQuery() *query.CJQ {
	item, bid := AuctionSchemas()
	return query.NewBuilder().
		AddStream(item).AddStream(bid).
		JoinOn("item", "bid", "itemid").
		MustBuild()
}

// AuctionSchemes returns the scheme set the scenario supports: item
// punctuates itemid (unique ids) and bid punctuates itemid (auction
// close).
func AuctionSchemes() *stream.SchemeSet {
	return stream.NewSchemeSet(
		stream.MustScheme("item", false, true, false, false),
		stream.MustScheme("bid", false, true, false),
	)
}

// Auction generates the interleaved item/bid/punctuation feed.
func Auction(cfg AuctionConfig) []Input {
	if cfg.Items <= 0 {
		cfg.Items = 100
	}
	if cfg.MaxBidsPerItem <= 0 {
		cfg.MaxBidsPerItem = 8
	}
	if cfg.OpenWindow <= 0 {
		cfg.OpenWindow = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Skew > 0 {
		zipf = rand.NewZipf(rng, 1+cfg.Skew, 1, uint64(cfg.MaxBidsPerItem)*64)
	}

	type openAuction struct {
		itemid  int64
		pending int
	}
	var open []openAuction
	var out []Input
	nextItem := int64(0)

	emitItem := func() {
		id := nextItem
		nextItem++
		out = append(out, Input{Stream: "item", Elem: stream.TupleElement(stream.NewTuple(
			stream.Int(rng.Int63n(1000)),
			stream.Int(id),
			stream.Str(fmt.Sprintf("item-%d", id)),
			stream.Float(float64(1+rng.Intn(100))),
		))})
		if cfg.PunctuateItems {
			out = append(out, Input{Stream: "item", Elem: stream.PunctElement(stream.MustPunctuation(
				stream.Wildcard(), stream.Const(stream.Int(id)), stream.Wildcard(), stream.Wildcard(),
			))})
		}
		pending := 1 + rng.Intn(cfg.MaxBidsPerItem)
		if zipf != nil {
			pending = 1 + int(zipf.Uint64())
		}
		open = append(open, openAuction{itemid: id, pending: pending})
	}
	closeOldest := func() {
		a := open[0]
		open = open[1:]
		if cfg.PunctuateClose {
			out = append(out, Input{Stream: "bid", Elem: stream.PunctElement(stream.MustPunctuation(
				stream.Wildcard(), stream.Const(stream.Int(a.itemid)), stream.Wildcard(),
			))})
		}
	}

	for nextItem < int64(cfg.Items) || len(open) > 0 {
		// Keep the window full while items remain.
		for len(open) < cfg.OpenWindow && nextItem < int64(cfg.Items) {
			emitItem()
		}
		// Emit one bid for a random open auction.
		i := rng.Intn(len(open))
		out = append(out, Input{Stream: "bid", Elem: stream.TupleElement(stream.NewTuple(
			stream.Int(rng.Int63n(5000)),
			stream.Int(open[i].itemid),
			stream.Float(float64(1+rng.Intn(20))),
		))})
		open[i].pending--
		// Close fully-bid auctions (oldest-first to keep the window moving).
		for len(open) > 0 && open[0].pending <= 0 {
			closeOldest()
		}
		// An auction with pending bids can also be force-closed rarely —
		// except under skew, where heavy auctions must run their course.
		if zipf == nil && len(open) > 0 && rng.Intn(50) == 0 {
			closeOldest()
		}
	}
	return out
}
