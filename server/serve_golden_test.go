package server_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"

	"punctsafe/engine"
	"punctsafe/server"
	"punctsafe/stream"
	"punctsafe/workload"
)

// TestServeBytesGolden pins the bytes the serving path writes: the raw
// stream one subscriber reads (handshake reply, every seq-stamped frame,
// the end marker) and the PSRVCK02 file at a fixed cut. It then restores
// a second server from that file and requires it to serve a subscriber
// attached at seq 0 the very same bytes, and to end with the same final
// checkpoint as the uninterrupted server. It speaks the protocol by hand,
// so nothing in the package's own encoding path can hide a changed byte.
// The hashes must not be edited: how the server builds a delivery may
// change, what it sends and persists may not.
func TestServeBytesGolden(t *testing.T) {
	want := map[string]string{
		"subscriber": "19249a5feb3f9135",
		"srvckpt":    "215e71315ea710f7",
	}
	check := func(name string, b []byte) {
		t.Helper()
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:])[:16]; got != want[name] {
			t.Errorf("%s: %d bytes hash to %q, recorded %q", name, len(b), got, want[name])
		}
	}
	feed := workload.Auction(workload.AuctionConfig{
		Items: 60, MaxBidsPerItem: 5, OpenWindow: 6, PunctuateItems: true, PunctuateClose: true, Seed: 47,
	})
	item, bid := workload.AuctionSchemas()
	dir := t.TempDir()
	start := func(sock, ckpt string) *server.Server {
		t.Helper()
		srv, err := server.New(server.Config{
			Listener: listenUnix(t, filepath.Join(dir, sock)),
			Build: func(d *engine.DSMS) error {
				for _, s := range workload.AuctionSchemes().All() {
					d.RegisterScheme(s)
				}
				_, err := d.Register("auction", workload.AuctionQuery(), engine.Options{EnforcePromises: true, PurgePunctuations: true})
				return err
			},
			Schemas:        []*stream.Schema{item, bid},
			CheckpointPath: filepath.Join(dir, ckpt),
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	send := func(srv *server.Server, feed []workload.Input) {
		t.Helper()
		for _, in := range feed {
			if err := srv.Runtime().Send(in.Stream, in.Elem); err != nil {
				t.Fatal(err)
			}
		}
	}
	half := len(feed) / 2

	srv := start("a.sock", "a.ckpt")
	got := rawSubscribe(t, filepath.Join(dir, "a.sock"), "auction")
	send(srv, feed[:half])
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	mid, err := os.ReadFile(filepath.Join(dir, "a.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	check("srvckpt", mid)
	send(srv, feed[half:])
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	stream1 := <-got
	check("subscriber", stream1)
	final1, err := os.ReadFile(filepath.Join(dir, "a.ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	// Restore round trip: the retained deliveries come back from the
	// checkpoint, the rest from the resumed engine, byte for byte.
	if err := os.WriteFile(filepath.Join(dir, "b.ckpt"), mid, 0o600); err != nil {
		t.Fatal(err)
	}
	srv2 := start("b.sock", "b.ckpt")
	got2 := rawSubscribe(t, filepath.Join(dir, "b.sock"), "auction")
	send(srv2, feed[half:])
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if stream2 := <-got2; !bytes.Equal(stream2, stream1) {
		t.Errorf("the restored server sent %d bytes, the uninterrupted one %d: they differ", len(stream2), len(stream1))
	}
	final2, err := os.ReadFile(filepath.Join(dir, "b.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final2, final1) {
		t.Error("the restored server's final checkpoint differs from the uninterrupted server's")
	}
}

// rawSubscribe sends a subscriber hello for query (no token, epoch 0,
// resume hint 0) and returns everything the server writes back, read
// until it closes the connection. It returns once the reply has begun,
// so the subscriber is attached before anything more is sent.
func rawSubscribe(t *testing.T, sock, query string) <-chan []byte {
	t.Helper()
	c, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	hello := append([]byte("PSRV1"), 'S', 0) // role, empty token
	hello = binary.AppendUvarint(hello, uint64(len(query)))
	hello = append(hello, query...)
	hello = append(hello, 0, 0) // epoch, resume hint
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, len("PSOK1"))
	if _, err := io.ReadFull(c, head); err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte, 1)
	go func() {
		defer c.Close()
		rest, _ := io.ReadAll(c)
		out <- append(head, rest...)
	}()
	return out
}
