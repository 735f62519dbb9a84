package engine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net"
	"os"
	"path/filepath"
	"testing"

	"punctsafe/engine"
	"punctsafe/server"
	"punctsafe/stream"
	"punctsafe/workload"
)

// TestWireAndCheckpointBytesGolden pins the bytes the system writes for
// others to read: wire frames (inputs and a query's emitted elements),
// the PSCKPT02 runtime checkpoint — single-tree and partitioned (PTP2),
// with a quarantined malformed punctuation in its dead-letter section,
// and over equality, multi-scheme and ordered punctuation stores —
// and the PSRVCK02 server checkpoint with its retained delivery ring. The
// hashes were recorded before punctuations stopped being stored as one
// pattern per column and must not be edited: a change of in-memory
// representation may not move a persisted or transmitted byte.
func TestWireAndCheckpointBytesGolden(t *testing.T) {
	want := map[string]string{
		"wire/auction":    "8cc1de83501e28a4",
		"wire/chain4":     "ff34a6a0a4ef7460",
		"wire/sensor":     "d0801a8d3d7d35b1",
		"wire/chain4-out": "2056b3f8083a8cec",
		"ckpt/auction/p0": "4e33b9f62dcfc26f",
		"ckpt/auction/p2": "d7560fb83c7c27b0",
		"ckpt/chain4":     "1b776fb57fc062a0",
		"ckpt/sensor":     "bcd8b76a3f1fc88f",
		"srvckpt/auction": "30fe81328c61f6c0",
	}
	check := func(name string, b []byte) {
		t.Helper()
		if len(b) == 0 {
			t.Fatalf("%s: nothing written", name)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:])[:16]; got != want[name] {
			t.Errorf("%s: %d bytes hash to %q, recorded %q", name, len(b), got, want[name])
		}
	}

	auction := workload.Auction(workload.AuctionConfig{
		Items: 150, MaxBidsPerItem: 5, OpenWindow: 6, PunctuateItems: true, PunctuateClose: true, Seed: 41,
	})
	item, bid := workload.AuctionSchemas()
	chainQ, err := workload.SyntheticQuery(workload.Chain, 4)
	if err != nil {
		t.Fatal(err)
	}
	chainSchemes := workload.AllJoinAttrSchemes(chainQ)
	chain := workload.Closed(chainQ, chainSchemes, workload.ClosedConfig{
		Rounds: 24, TuplesPerRound: 6, Window: 4, PunctFraction: 1, PunctDelay: 2, Seed: 42,
	})
	sensor := workload.Sensor(workload.SensorConfig{
		Epochs: 80, ReadingsPerEpoch: 3, Disorder: 6, HeartbeatEvery: 4, Heartbeats: true, Seed: 43,
	})

	t.Run("wire", func(t *testing.T) {
		wire := writeWire(t, auction, item, bid)
		check("wire/auction", wire)
		// What a reader decodes, a writer encodes to the same bytes.
		var again bytes.Buffer
		ww := engine.NewWireWriter(&again, item, bid)
		wr := engine.NewWireReader(bytes.NewReader(wire), item, bid)
		for {
			te, err := wr.Read()
			if err != nil {
				break
			}
			if err := ww.Write(te.Stream, te.Elem); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(again.Bytes(), wire) {
			t.Error("wire/auction: decoding and re-encoding changed the bytes")
		}
		check("wire/chain4", writeWire(t, chain, chainQ.Streams()...))
		check("wire/sensor", writeWire(t, sensor, workload.SensorQuery().Streams()...))

		// The chain query's emitted stream: result tuples and the output
		// punctuations its root propagates, in emission order.
		d := engine.New()
		for _, s := range chainSchemes.All() {
			d.RegisterScheme(s)
		}
		var out []stream.Element
		reg, err := d.Register("q", chainQ, engine.Options{
			OnResult: func(tu stream.Tuple) {
				out = append(out, stream.TupleElement(stream.NewTuple(append([]stream.Value(nil), tu.Values...)...)))
			},
			OnPunct: func(p stream.Punctuation) { out = append(out, stream.PunctElement(p)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range chain {
			if err := d.Push(in.Stream, in.Elem); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		ww = engine.NewWireWriter(&buf, reg.OutputSchema())
		puncts := 0
		for _, e := range out {
			if e.IsPunct() {
				puncts++
			}
			if err := ww.Write(reg.OutputSchema().Name(), e); err != nil {
				t.Fatal(err)
			}
		}
		if puncts == 0 {
			t.Fatal("the chain query emitted no punctuation; wire/chain4-out pins nothing of them")
		}
		check("wire/chain4-out", buf.Bytes())
	})

	t.Run("checkpoint", func(t *testing.T) {
		for _, p := range []struct {
			name       string
			partitions int
		}{{"ckpt/auction/p0", 0}, {"ckpt/auction/p2", 2}} {
			d := engine.New()
			for _, s := range workload.AuctionSchemes().All() {
				d.RegisterScheme(s)
			}
			reg, err := d.Register("q", workload.AuctionQuery(), engine.Options{
				EnforcePromises: true, Partitions: p.partitions,
			})
			if err != nil {
				t.Fatal(err)
			}
			if reg.Partitions() != p.partitions && p.partitions > 0 {
				t.Fatalf("%s: registered with %d partitions (%s)", p.name, reg.Partitions(), reg.PartitionReason)
			}
			rt := d.RunSharded(engine.RuntimeOptions{OnError: engine.Quarantine})
			// A punctuation one column short of the item schema: the shard
			// quarantines it, and the checkpoint carries it as a dead letter.
			bad := stream.PunctElement(stream.MustPunctuation(stream.Wildcard(), stream.Const(stream.Int(3)), stream.Leq(stream.Float(2.5))))
			check(p.name, checkpointAt(t, rt, auction, len(auction)/2, "item", bad))
		}
		d := engine.New()
		for _, s := range chainSchemes.All() {
			d.RegisterScheme(s)
		}
		if _, err := d.Register("q", chainQ, engine.Options{}); err != nil {
			t.Fatal(err)
		}
		check("ckpt/chain4", checkpointAt(t, d.RunSharded(engine.RuntimeOptions{}), chain, len(chain)/2, "", stream.Element{}))
		d = engine.New()
		for _, s := range workload.SensorSchemes().All() {
			d.RegisterScheme(s)
		}
		if _, err := d.Register("q", workload.SensorQuery(), engine.Options{EnforcePromises: true}); err != nil {
			t.Fatal(err)
		}
		check("ckpt/sensor", checkpointAt(t, d.RunSharded(engine.RuntimeOptions{}), sensor, len(sensor)/2, "", stream.Element{}))
	})

	t.Run("server", func(t *testing.T) {
		dir := t.TempDir()
		l, err := net.Listen("unix", filepath.Join(dir, "s.sock"))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "ckpt")
		srv, err := server.New(server.Config{
			Listener: l,
			Build: func(d *engine.DSMS) error {
				for _, s := range workload.AuctionSchemes().All() {
					d.RegisterScheme(s)
				}
				_, err := d.Register("auction", workload.AuctionQuery(), engine.Options{EnforcePromises: true, PurgePunctuations: true})
				return err
			},
			Schemas:        []*stream.Schema{item, bid},
			CheckpointPath: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Kill()
		for _, in := range auction[:len(auction)/2] {
			if err := srv.Runtime().Send(in.Stream, in.Elem); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		check("srvckpt/auction", raw)
	})
}

// writeWire encodes a feed as wire frames.
func writeWire(t *testing.T, feed []workload.Input, schemas ...*stream.Schema) []byte {
	t.Helper()
	var buf bytes.Buffer
	ww := engine.NewWireWriter(&buf, schemas...)
	for _, in := range feed {
		if err := ww.Write(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkpointAt sends feed[:cut] with each element's index+1 as its
// source offset — and, when badStream is set, the bad element on it just
// before the cut — then returns a checkpoint of the runtime and shuts it
// down.
func checkpointAt(t *testing.T, rt *engine.Runtime, feed []workload.Input, cut int, badStream string, bad stream.Element) []byte {
	t.Helper()
	defer func() {
		rt.Close()
		rt.Wait()
	}()
	for i, in := range feed[:cut] {
		if i == cut-1 && badStream != "" {
			if err := rt.Send(badStream, bad); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.SendAt("feed", in.Stream, in.Elem, int64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rt.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if badStream != "" && len(rt.DeadLetters().Entries) != 1 {
		t.Fatalf("%d dead letters, want the one malformed punctuation", len(rt.DeadLetters().Entries))
	}
	return buf.Bytes()
}
