package server_test

// Nothing a consumer keeps is ever overwritten. The element path reuses
// its containers — the operator's output buffer, the run buffers between
// producers and shards, the partition records, the subscriber's frame
// scratch — and every consumer is handed elements out of one of them. The
// contract is that the container is borrowed but the Tuple or Punctuation
// taken from it is the consumer's for good, with one exception: a result
// tuple's Values are lent. Every tree the engine builds carves its results
// out of memory it reuses, so an OnResult callback or a delivery hook
// holds a result's Values only until it returns and keeps a copy; the
// engine's own keepers (a passive view's log, Results) copy too. A server
// subscriber is lent more: Next decodes each result into one value buffer
// and each punctuation's constants into one pattern buffer, both valid
// until the next Next, so the subscriber row keeps copies, and the
// Collect row keeps what Collect copied. Each row below is one way of consuming a
// query; its consumer keeps every value it is handed (a callback or a
// subscriber a copy), renders nothing until the feed is over, and must
// then hold
// exactly the sequence a reference run rendered element by element, at
// delivery, from outputs cloned out of the tree before its next call.

import (
	"io"
	"path/filepath"
	"slices"
	"testing"

	"punctsafe/engine"
	"punctsafe/query"
	"punctsafe/server"
	"punctsafe/stream"
	"punctsafe/workload"
)

type retainFeed struct {
	q       *query.CJQ
	schemes *stream.SchemeSet
	inputs  []workload.Input
	// copart: the query is co-partitionable, so Partitions=2 really
	// partitions it (otherwise it falls back to one tree).
	copart bool
}

func (f *retainFeed) schemas() []*stream.Schema {
	out := make([]*stream.Schema, f.q.N())
	for i := range out {
		out[i] = f.q.Stream(i)
	}
	return out
}

func (f *retainFeed) register(t *testing.T, d *engine.DSMS, name string, opts engine.Options) *engine.Registered {
	t.Helper()
	for _, s := range f.schemes.All() {
		d.RegisterScheme(s)
	}
	opts.PurgePunctuations = true
	reg, err := d.Register(name, f.q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// sendRuns feeds the inputs as same-stream runs of at most 64 elements,
// reusing one caller-side slice for every run: SendBatch's caller keeps
// its slice, so overwriting it must not reach anything downstream.
func (f *retainFeed) sendRuns(t *testing.T, send func(streamName string, run []stream.Element) error) {
	t.Helper()
	run := make([]stream.Element, 0, 64)
	for i := 0; i < len(f.inputs); {
		run = run[:0]
		j := i
		for ; j < len(f.inputs) && f.inputs[j].Stream == f.inputs[i].Stream && len(run) < cap(run); j++ {
			run = append(run, f.inputs[j].Elem)
		}
		if err := send(f.inputs[i].Stream, run); err != nil {
			t.Fatal(err)
		}
		i = j
	}
}

// reference drives the query's own tree element by element and renders
// every output the moment it is returned, from a fresh copy of the slice.
func (f *retainFeed) reference(t *testing.T) (all, tuples []string) {
	t.Helper()
	reg := f.register(t, engine.New(), "ref", engine.Options{})
	index := make(map[string]int)
	for i, sc := range f.schemas() {
		index[sc.Name()] = i
	}
	render := func(outs []stream.Element, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range slices.Clone(outs) {
			all = append(all, o.String())
			if !o.IsPunct() {
				tuples = append(tuples, o.String())
			}
		}
	}
	for _, in := range f.inputs {
		render(reg.Tree.Push(index[in.Stream], in.Elem))
	}
	render(reg.Tree.Flush())
	if len(tuples) == 0 || len(tuples) == len(all) {
		t.Fatalf("reference run delivers %d tuples among %d outputs; the feed must produce both kinds", len(tuples), len(all))
	}
	return all, tuples
}

// keeper retains what a consumer is handed, unrendered.
type keeper struct{ kept []stream.Element }

func (k *keeper) options() engine.Options {
	return engine.Options{
		OnResult: func(t stream.Tuple) { k.kept = append(k.kept, stream.TupleElement(t.Clone())) },
		OnPunct:  func(p stream.Punctuation) { k.kept = append(k.kept, stream.PunctElement(p)) },
	}
}

func (k *keeper) rendered() []string {
	out := make([]string, len(k.kept))
	for i, e := range k.kept {
		out[i] = e.String()
	}
	return out
}

func tupleStrings(ts []stream.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = stream.TupleElement(t).String()
	}
	return out
}

func TestConsumersKeepWhatTheyAreHanded(t *testing.T) {
	chain, err := workload.SyntheticQuery(workload.Chain, 4)
	if err != nil {
		t.Fatal(err)
	}
	chainSchemes := workload.AllJoinAttrSchemes(chain)
	feeds := map[string]*retainFeed{
		"auction": {workload.AuctionQuery(), workload.AuctionSchemes(), workload.Auction(workload.AuctionConfig{
			Items: 150, MaxBidsPerItem: 8, OpenWindow: 16, PunctuateItems: true, PunctuateClose: true, Seed: 5}), true},
		"chain4": {chain, chainSchemes, workload.Closed(chain, chainSchemes, workload.ClosedConfig{
			Rounds: 6, TuplesPerRound: 16, Window: 8, PunctFraction: 1, PunctDelay: 2, Seed: 5}), false},
	}
	runSharded := func(t *testing.T, f *retainFeed, d *engine.DSMS) {
		t.Helper()
		rt := d.RunSharded(engine.RuntimeOptions{Buffer: 4})
		f.sendRuns(t, rt.SendBatch)
		rt.Close()
		if err := rt.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	runPush := func(t *testing.T, f *retainFeed, d *engine.DSMS) {
		t.Helper()
		for _, in := range f.inputs {
			if err := d.Push(in.Stream, in.Elem); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// besideScribbler registers three views of one shared tree: a passive
	// view, an OnPunct-only view, and last a callback view that overwrites
	// every Value of each lent tuple once it has read it, as the tree's
	// next call would. The engine's two keepers, the passive log and
	// Results, copy what they keep, so both views still hold the
	// reference; the OnPunct-only view is compared with the passive one.
	besideScribbler := func(parts int, drive func(*testing.T, *retainFeed, *engine.DSMS)) func(*testing.T, *retainFeed) ([]string, bool) {
		return func(t *testing.T, f *retainFeed) ([]string, bool) {
			scribble := stream.Str("overwritten")
			d := engine.New()
			passive := f.register(t, d, "passive", engine.Options{Share: true, Partitions: parts})
			punctOnly := f.register(t, d, "punct-only", engine.Options{Share: true, Partitions: parts,
				OnPunct: func(stream.Punctuation) {}})
			f.register(t, d, "scribbler", engine.Options{Share: true, Partitions: parts, OnResult: func(tu stream.Tuple) {
				for i, v := range tu.Values {
					if v.Equal(scribble) {
						t.Errorf("lent tuple handed out with value %d already overwritten", i)
					}
					tu.Values[i] = scribble
				}
			}})
			if len(passive.SharedWith()) != 2 {
				t.Fatalf("the views share a tree with %v, want the other two", passive.SharedWith())
			}
			if parts > 0 && f.copart && passive.Part == nil {
				t.Fatalf("Partitions=%d fell back to one tree: %s", parts, passive.PartitionReason)
			}
			drive(t, f, d)
			got := tupleStrings(passive.Results)
			requireSameStream(t, "OnPunct-only view", tupleStrings(punctOnly.Results), got)
			return got, false
		}
	}
	// serveTo runs the query in a server and drains its one subscriber
	// with drain, which keeps every delivery, until the server's clean
	// end of stream.
	serveTo := func(drain func(*server.Subscriber) ([]stream.Element, error)) func(*testing.T, *retainFeed) ([]string, bool) {
		return func(t *testing.T, f *retainFeed) ([]string, bool) {
			dir := t.TempDir()
			sock := filepath.Join(dir, "s.sock")
			srv, err := server.New(server.Config{
				Listener: listenUnix(t, sock),
				Build: func(d *engine.DSMS) error {
					f.register(t, d, "q", engine.Options{})
					return nil
				},
				Schemas: f.schemas(),
			})
			if err != nil {
				t.Fatal(err)
			}
			dl := testDialer(sock)
			sub, err := dl.Subscribe("q")
			if err != nil {
				t.Fatal(err)
			}
			var k keeper
			done := make(chan error, 1)
			go func() {
				var err error
				k.kept, err = drain(sub)
				done <- err
			}()
			prod, err := dl.Producer("feed", f.schemas()...)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range f.inputs {
				if err := prod.Send(in.Stream, in.Elem); err != nil {
					t.Fatal(err)
				}
			}
			waitIngested(t, srv, prod, "feed")
			prod.Close()
			if err := srv.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("subscriber: %v", err)
			}
			sub.Close()
			return k.rendered(), true
		}
	}
	// Each consumer returns the deliveries it kept, rendered only now, and
	// whether that sequence includes the punctuations.
	consumers := []struct {
		name string
		run  func(t *testing.T, f *retainFeed) (got []string, withPuncts bool)
	}{
		{"DSMS.Push", func(t *testing.T, f *retainFeed) ([]string, bool) {
			var k keeper
			d := engine.New()
			f.register(t, d, "q", k.options())
			for _, in := range f.inputs {
				if err := d.Push(in.Stream, in.Elem); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			return k.rendered(), true
		}},
		{"RunSharded", func(t *testing.T, f *retainFeed) ([]string, bool) {
			var k keeper
			d := engine.New()
			f.register(t, d, "q", k.options())
			runSharded(t, f, d)
			return k.rendered(), true
		}},
		{"Partitions=2", func(t *testing.T, f *retainFeed) ([]string, bool) {
			var k keeper
			d := engine.New()
			opts := k.options()
			opts.Partitions = 2 // chain4 has no co-partitioning class and falls back to one tree
			f.register(t, d, "q", opts)
			runSharded(t, f, d)
			return k.rendered(), true
		}},
		{"shared tree, callback view", func(t *testing.T, f *retainFeed) ([]string, bool) {
			var k keeper
			d := engine.New()
			opts := k.options()
			opts.Share = true
			f.register(t, d, "active", opts)
			f.register(t, d, "passive", engine.Options{Share: true})
			runSharded(t, f, d)
			return k.rendered(), true
		}},
		{"shared tree, passive view", func(t *testing.T, f *retainFeed) ([]string, bool) {
			var k keeper
			d := engine.New()
			opts := k.options()
			opts.Share = true
			f.register(t, d, "active", opts)
			passive := f.register(t, d, "passive", engine.Options{Share: true})
			if len(passive.SharedWith()) == 0 {
				t.Fatal("the passive view did not join the active view's tree")
			}
			runSharded(t, f, d)
			return tupleStrings(passive.Results), false
		}},
		{"SetDeliveryHook", func(t *testing.T, f *retainFeed) ([]string, bool) {
			var k keeper
			d := engine.New()
			f.register(t, d, "q", engine.Options{}).SetDeliveryHook(func(_ uint64, e stream.Element) {
				k.kept = append(k.kept, e.Clone())
			})
			runSharded(t, f, d)
			return k.rendered(), true
		}},
		{"shared tree, hook view and callback view", func(t *testing.T, f *retainFeed) ([]string, bool) {
			// The hook view and the callback view are handed the same lent
			// tuple; the callback keeps a copy.
			var k keeper
			d := engine.New()
			f.register(t, d, "hook", engine.Options{Share: true}).SetDeliveryHook(func(uint64, stream.Element) {})
			opts := k.options()
			opts.Share = true
			if len(f.register(t, d, "callback", opts).SharedWith()) == 0 {
				t.Fatal("the callback view did not join the hook view's tree")
			}
			runSharded(t, f, d)
			return k.rendered(), true
		}},
		{"shared tree, keepers beside a scribbler, DSMS.Push", besideScribbler(0, runPush)},
		{"shared tree, keepers beside a scribbler, RunSharded", besideScribbler(0, runSharded)},
		{"shared tree, keepers beside a scribbler, Partitions=2", besideScribbler(2, runSharded)},
		{"server subscriber", serveTo(func(sub *server.Subscriber) ([]stream.Element, error) {
			var kept []stream.Element
			for {
				d, err := sub.Next()
				if err == io.EOF {
					return kept, nil
				}
				if err != nil {
					return kept, err
				}
				kept = append(kept, d.Elem.Clone())
			}
		})},
		{"server subscriber, Collect", serveTo(func(sub *server.Subscriber) ([]stream.Element, error) {
			ds, err := sub.Collect()
			kept := make([]stream.Element, len(ds))
			for i, d := range ds {
				kept[i] = d.Elem
			}
			return kept, err
		})},
	}
	for fname, f := range feeds {
		all, tuples := f.reference(t)
		for _, c := range consumers {
			t.Run(fname+"/"+c.name, func(t *testing.T) {
				got, withPuncts := c.run(t, f)
				want := tuples
				if withPuncts {
					want = all
				}
				requireSameStream(t, c.name, got, want)
			})
		}
	}
}
