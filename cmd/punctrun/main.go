// Punctrun executes a continuous join query over a generated workload and
// reports the runtime behaviour the safety theory predicts: join-state
// sizes over time, purge counts, punctuation-store sizes and throughput.
//
// Usage:
//
//	punctrun -scenario auction|netmon|sensors|chain|cycle|star|clique [flags]
//	punctrun -sql script.sql [flags]
//
// Flags tune the workload size, the purge strategy (eager/lazy batch),
// punctuation lifespans, §5.1 punctuation purging, Zipf skew, CSV
// timeline export, and whether punctuations are generated at all (the
// unsafe baseline). -cpuprofile and -memprofile capture pprof profiles
// of the ingest loop and the post-run heap for go tool pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"punctsafe/engine"
	"punctsafe/exec"
	"punctsafe/internal/faultinject"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/streamsql"
	"punctsafe/workload"
)

func main() {
	var (
		scenario     = flag.String("scenario", "auction", "auction | netmon | sensors | chain | cycle | star | clique")
		size         = flag.Int("n", 2000, "scenario size (items/flows/epochs/rounds)")
		k            = flag.Int("k", 3, "stream count for synthetic topologies")
		noPunct      = flag.Bool("nopunct", false, "generate no punctuations (unbounded baseline)")
		batch        = flag.Int("batch", 1, "purge batch size (1 = eager)")
		lifespan     = flag.Uint64("lifespan", 0, "punctuation lifespan in elements (0 = forever)")
		purgePunct   = flag.Bool("purgepunct", false, "enable §5.1 punctuation purging")
		interval     = flag.Int("interval", 0, "print state sizes every N elements (0 = summary only)")
		zipf         = flag.Float64("zipf", 0, "Zipf skew for synthetic value draws; for -scenario auction, skews bids-per-item heavy-tailed")
		sqlFile      = flag.String("sql", "", "run the first query of this streamsql script on a generated closed workload")
		csvPath      = flag.String("csv", "", "write a state/punctuation/result timeline as CSV to this file")
		parallel     = flag.Bool("parallel", false, "ingest through the sharded per-query runtime (-interval reads race-safe snapshots; -csv is unsupported)")
		onError      = flag.String("on-error", "fail", "error policy for the sharded runtime: fail | drop | quarantine (needs -parallel)")
		deadLetter   = flag.Int("dead-letter", 0, "max offenders retained under -on-error quarantine (0 = default bound)")
		enforce      = flag.Bool("enforce", false, "fail tuples that violate an already-seen punctuation promise")
		ckptPath     = flag.String("checkpoint", "", "durable checkpoint file; written atomically every -checkpoint-every elements and at end of feed (needs -parallel)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "checkpoint every N elements (0 = only at end of feed; needs -checkpoint)")
		restore      = flag.Bool("restore", false, "restore runtime state from -checkpoint and resume the feed at the recorded offset")
		partitions   = flag.Int("partitions", 1, "hash-partitioned join replicas per query (1 = single tree; needs a co-partitionable query for >1)")
		softLimit    = flag.Int("soft-state-limit", 0, "soft per-replica state bound: crossing it forces a purge round and reports pressure (0 = off)")
		chaosLate    = flag.Int("chaos-late", 0, "inject N late tuples behind their covering punctuation (seeded; pair with -enforce)")
		views        = flag.Int("views", 1, "register N fingerprint-equal views of the scenario query (shared-subplan execution: one physical tree serves all N)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the ingest loop to this file (go tool pprof)")
		memProfile   = flag.String("memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
		blockProfile = flag.String("blockprofile", "", "write a goroutine-blocking profile of the ingest loop to this file (channel waits in the parallel front-end; go tool pprof)")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile of the ingest loop to this file (ingress/router lock contention; go tool pprof)")
	)
	flag.Parse()

	policy, err := engine.ParseErrorPolicy(*onError)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if policy != engine.Fail && !*parallel {
		fmt.Fprintln(os.Stderr, "punctrun: -on-error drop|quarantine needs the sharded runtime (add -parallel)")
		os.Exit(2)
	}
	if (*ckptPath != "" || *restore) && !*parallel {
		fmt.Fprintln(os.Stderr, "punctrun: -checkpoint/-restore need the sharded runtime (add -parallel)")
		os.Exit(2)
	}
	if (*restore || *ckptEvery > 0) && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "punctrun: -restore and -checkpoint-every need -checkpoint <path>")
		os.Exit(2)
	}
	if *partitions < 1 {
		fmt.Fprintf(os.Stderr, "punctrun: -partitions %d: need at least 1\n", *partitions)
		os.Exit(2)
	}
	// -partitions 1 is the standard single-tree path (engine Partitions: 0);
	// only >1 engages the hash-partitioned replicas.
	enginePartitions := 0
	if *partitions > 1 {
		enginePartitions = *partitions
	}

	q, schemes, inputs, err := buildScenario(*scenario, *size, *k, !*noPunct, *zipf, *sqlFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	injectedLate := 0
	if *chaosLate > 0 {
		feed := make([]faultinject.Item, len(inputs))
		for i, in := range inputs {
			feed[i] = faultinject.Item(in)
		}
		feed, rep := faultinject.InjectLate(feed, *chaosLate, 1)
		injectedLate = rep.Late
		inputs = make([]workload.Input, len(feed))
		for i, it := range feed {
			inputs[i] = workload.Input(it)
		}
	}

	d := engine.New()
	for _, s := range schemes.All() {
		d.RegisterScheme(s)
	}
	results := 0
	pressures := 0
	opts := engine.Options{
		PurgeBatch:        *batch,
		PunctLifespan:     *lifespan,
		PurgePunctuations: *purgePunct,
		EnforcePromises:   *enforce,
		Partitions:        enginePartitions,
		SoftStateLimit:    *softLimit,
		// Share is a no-op for a single view; with -views > 1 it folds
		// every fingerprint-equal registration onto one physical tree.
		Share:    *views > 1,
		OnResult: func(stream.Tuple) { results++ },
		OnPressure: func(ev exec.PressureEvent) {
			pressures++
			where := "single tree"
			if ev.Partition >= 0 {
				where = fmt.Sprintf("partition %d", ev.Partition)
			}
			fmt.Printf("pressure: %s state %d over soft limit %d; purge relieved to %d\n",
				where, ev.State, ev.SoftLimit, ev.Relieved)
		},
	}
	reg, err := d.Register(*scenario, q, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Extra views share the driver's executor config but observe their
	// deliveries passively (no callbacks), so fan-out to them is the
	// shared-delivery-log path: per-element cost independent of -views.
	viewRegs := make([]*engine.Registered, 0, *views-1)
	for v := 1; v < *views; v++ {
		vopts := opts
		vopts.OnResult, vopts.OnPressure = nil, nil
		vreg, err := d.Register(fmt.Sprintf("view%d", v), q, vopts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		viewRegs = append(viewRegs, vreg)
	}
	if *partitions > 1 && reg.Partitions() == 0 {
		fmt.Fprintf(os.Stderr, "punctrun: warning: -partitions %d unavailable, running single-tree: %s\n",
			*partitions, reg.PartitionReason)
	}
	fmt.Printf("query:   %s\n", q)
	fmt.Printf("schemes: %s\n", schemes)
	fmt.Printf("plan:    %s\n", reg.Plan.Render(q))
	if p := reg.Partitions(); p > 0 {
		fmt.Printf("parts:   %d hash-partitioned replicas\n", p)
	}
	if *views > 1 {
		fmt.Printf("views:   %d fingerprint-equal views, %d physical tree(s)\n", *views, d.PhysicalTrees())
	}
	st := workload.Summarize(inputs)
	fmt.Printf("feed:    %d tuples, %d punctuations\n", st.Tuples, st.Puncts)
	if injectedLate > 0 {
		fmt.Printf("chaos:   %d late tuples injected (policy %s)\n", injectedLate, policy)
	}
	fmt.Println()

	if *interval > 0 {
		fmt.Printf("%12s %12s %12s %12s\n", "element", "state", "puncts", "results")
	}
	var timeline *exec.Timeline
	if *csvPath != "" {
		if *parallel {
			fmt.Fprintln(os.Stderr, "punctrun: -csv requires the sequential path (drop -parallel)")
			os.Exit(2)
		}
		every := *interval
		if every <= 0 {
			every = 100
		}
		timeline = &exec.Timeline{Every: every}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *blockProfile != "" {
		// Rate 1 records every blocking event: the runs are short and the
		// interesting signal is where the parallel front-end's goroutines
		// park (mailbox sends, barrier waits), not a sampled subset.
		runtime.SetBlockProfileRate(1)
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	start := time.Now()
	var deadLetters *engine.DeadLetterSnapshot
	if *parallel {
		rtOpts := engine.RuntimeOptions{
			OnError:         policy,
			DeadLetterLimit: *deadLetter,
		}
		var rt *engine.Runtime
		first := 0
		if *restore {
			f, err := os.Open(*ckptPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			rt, err = d.RestoreRuntime(f, rtOpts)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			first = int(rt.ResumeOffset("feed"))
			if first > len(inputs) {
				fmt.Fprintf(os.Stderr, "punctrun: checkpoint offset %d is past the %d-element feed\n", first, len(inputs))
				os.Exit(1)
			}
			fmt.Printf("restore: resuming at element %d of %d (from %s)\n", first, len(inputs), *ckptPath)
		} else {
			rt = d.RunSharded(rtOpts)
		}
		checkpoints := 0
		for i := first; i < len(inputs); i++ {
			in := inputs[i]
			if err := rt.SendAt("feed", in.Stream, in.Elem, int64(i)+1); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if *ckptPath != "" && *ckptEvery > 0 && (i+1)%*ckptEvery == 0 {
				if err := rt.CheckpointFile(*ckptPath); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				checkpoints++
			}
			if *interval > 0 && (i+1)%*interval == 0 {
				snaps, err := rt.Stats(*scenario)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				state, puncts, res := 0, 0, uint64(0)
				for _, st := range snaps {
					state += st.TotalState()
					puncts += st.TotalPunctStore()
				}
				res = snaps[len(snaps)-1].Results
				fmt.Printf("%12d %12d %12d %12d\n", i+1, state, puncts, res)
			}
		}
		if *ckptPath != "" {
			// Final snapshot so a later -restore resumes past the whole feed.
			if err := rt.CheckpointFile(*ckptPath); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			checkpoints++
			fmt.Printf("checkpoints:        %d written -> %s\n", checkpoints, *ckptPath)
		}
		rt.Close()
		if err := rt.Wait(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dl := rt.DeadLetters()
		deadLetters = &dl
	} else {
		for i, in := range inputs {
			if err := d.Push(in.Stream, in.Elem); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if timeline != nil {
				timeline.ObserveTotals(reg.TotalState(), reg.TotalPunctStore(), results)
			}
			if *interval > 0 && (i+1)%*interval == 0 {
				fmt.Printf("%12d %12d %12d %12d\n",
					i+1, reg.TotalState(), reg.TotalPunctStore(), results)
			}
		}
		if err := d.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	elapsed := time.Since(start)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	writeLookupProfile := func(path, name string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	writeLookupProfile(*blockProfile, "block")
	writeLookupProfile(*mutexProfile, "mutex")
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // report live join/punctuation state, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Println()
	fmt.Printf("results:            %d\n", results)
	fmt.Printf("elapsed:            %v (%.0f elements/s)\n",
		elapsed.Round(time.Millisecond), float64(len(inputs))/elapsed.Seconds())
	if *views > 1 {
		fmt.Printf("views:              %d fingerprint-equal views over %d physical tree(s)\n",
			*views, d.PhysicalTrees())
		printed := 0
		fmt.Printf("  %-16s delivered %d\n", reg.Name, reg.Delivered())
		for _, vreg := range viewRegs {
			if printed >= 15 {
				fmt.Printf("  ... (%d more views)\n", len(viewRegs)-printed)
				break
			}
			fmt.Printf("  %-16s delivered %d (%d results)\n", vreg.Name, vreg.Delivered(), len(vreg.Results))
			printed++
		}
	}
	fmt.Printf("final state:        %d tuples\n", reg.TotalState())
	fmt.Printf("max state:          %d tuples\n", reg.MaxState())
	fmt.Printf("final punct store:  %d\n", reg.TotalPunctStore())
	if pressures > 0 {
		fmt.Printf("pressure:           %d events\n", pressures)
	}
	for i, st := range reg.StatsSnapshot() {
		fmt.Printf("operator %d:         %s\n", i, st)
	}
	if deadLetters != nil && policy != engine.Fail {
		fmt.Printf("dead letters:       %d absorbed (%d retained, %d evicted)\n",
			deadLetters.Total, len(deadLetters.Entries), deadLetters.Evicted)
		for name, n := range deadLetters.ByStream {
			if name == "" {
				name = "<wire>"
			}
			fmt.Printf("  stream %-10s %d\n", name, n)
		}
	}
	if timeline != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := timeline.WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("timeline:           %d samples -> %s\n", len(timeline.Samples), *csvPath)
	}
}

func buildScenario(name string, n, k int, punct bool, zipf float64, sqlFile string) (*query.CJQ, *stream.SchemeSet, []workload.Input, error) {
	if sqlFile != "" {
		return declaredScenario(n, punct, zipf, sqlFile)
	}
	switch name {
	case "auction":
		q := workload.AuctionQuery()
		schemes := workload.AuctionSchemes()
		inputs := workload.Auction(workload.AuctionConfig{
			Items: n, MaxBidsPerItem: 8, OpenWindow: 6, Skew: zipf,
			PunctuateItems: punct, PunctuateClose: punct, Seed: 1,
		})
		return q, schemes, inputs, nil
	case "netmon":
		q := workload.NetMonQuery()
		schemes := workload.NetMonSchemes()
		inputs := workload.NetMon(workload.NetMonConfig{
			Flows: n, MaxPktsPerFlow: 10, OpenWindow: 8,
			PunctuateFlowEnd: punct, PunctuateConn: punct, Seed: 1,
		})
		return q, schemes, inputs, nil
	case "sensors":
		q := workload.SensorQuery()
		schemes := workload.SensorSchemes()
		inputs := workload.Sensor(workload.SensorConfig{
			Epochs: n, ReadingsPerEpoch: 2, Disorder: 8,
			HeartbeatEvery: 4, Heartbeats: punct, Seed: 1,
		})
		return q, schemes, inputs, nil
	case "chain", "cycle", "star", "clique":
		q, err := workload.SyntheticQuery(workload.Topology(name), k)
		if err != nil {
			return nil, nil, nil, err
		}
		schemes := workload.AllJoinAttrSchemes(q)
		frac := 1.0
		if !punct {
			frac = 0
		}
		inputs := workload.Closed(q, schemes, workload.ClosedConfig{
			Rounds: n, TuplesPerRound: 8, Window: 4, PunctFraction: frac, ZipfS: zipf, Seed: 1,
		})
		return q, schemes, inputs, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown scenario %q", name)
	}
}

// declaredScenario loads the first query of a streamsql script and
// generates a closed workload for it.
func declaredScenario(n int, punct bool, zipf float64, sqlFile string) (*query.CJQ, *stream.SchemeSet, []workload.Input, error) {
	src, err := os.ReadFile(sqlFile)
	if err != nil {
		return nil, nil, nil, err
	}
	script, err := streamsql.Parse(string(src))
	if err != nil {
		return nil, nil, nil, err
	}
	cqs, err := streamsql.Compile(script)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(cqs) == 0 {
		return nil, nil, nil, fmt.Errorf("script has no SELECT statement")
	}
	q, schemes := cqs[0].Query, script.Schemes
	// Closed workloads need integer join attributes; reject others early.
	for i := 0; i < q.N(); i++ {
		for _, a := range q.JoinAttrs(i) {
			if q.Stream(i).Attr(a).Kind != stream.KindInt {
				return nil, nil, nil, fmt.Errorf("closed workload generation needs int join attributes (%s.%s is %s)",
					q.Stream(i).Name(), q.Stream(i).Attr(a).Name, q.Stream(i).Attr(a).Kind)
			}
		}
	}
	frac := 1.0
	if !punct {
		frac = 0
	}
	inputs := workload.Closed(q, schemes, workload.ClosedConfig{
		Rounds: n, TuplesPerRound: 8, Window: 4, PunctFraction: frac, ZipfS: zipf, Seed: 1,
	})
	return q, schemes, inputs, nil
}
