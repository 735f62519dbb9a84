package server_test

// BenchmarkFailoverRTO measures recovery time objective: the wall-clock
// span from killing the primary to the first post-failover delivery
// reaching an already-connected subscriber, covering standby promotion
// (25ms silence timeout), client rotation, producer replay, and the
// engine catching up. ns/op IS the RTO.

import (
	"testing"
	"time"

	"punctsafe/workload"
)

func BenchmarkFailoverRTO(b *testing.B) {
	feed := auctionFeed()
	half := len(feed) / 2
	preKill := len(referenceDeliveries(b, feed[:half]))
	if preKill == 0 {
		b.Fatal("half feed yields no deliveries")
	}
	item, bid := workload.AuctionSchemas()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		p, s := nodePaths(dir, "p"), nodePaths(dir, "s")
		startPrimaryNode(b, p)
		startStandbyNode(b, s, p, 25*time.Millisecond, nil)
		waitSynced(b, s, "feed", 0)

		prod, err := haDialer(p, s).Producer("feed", item, bid)
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range feed[:half] {
			if err := prod.Send(it.Stream, it.Elem); err != nil {
				b.Fatal(err)
			}
		}
		waitIngested(b, p.srv, prod, "feed")
		ackAll(b, p.srv, prod)
		waitSynced(b, s, "feed", prod.Sent())

		// The subscriber is attached and fully caught up before the kill,
		// so the next delivery it sees is strictly post-failover.
		sub, err := haDialer(p, s).Subscribe(testQuery)
		if err != nil {
			b.Fatal(err)
		}
		for n := 0; n < preKill; n++ {
			if _, err := sub.Next(); err != nil {
				b.Fatal(err)
			}
		}

		b.StartTimer()
		p.srv.Kill()
		for _, it := range feed[half:] {
			if err := prod.Send(it.Stream, it.Elem); err != nil {
				b.Fatal(err)
			}
		}
		if err := prod.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := sub.Next(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()

		prod.Close()
		sub.Close()
		s.srv.Kill()
		b.StartTimer()
	}
}
