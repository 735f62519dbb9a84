// Punctserve runs the network serving front-end: a punctuated-stream
// server that accepts producer connections pushing wire frames and
// subscriber connections receiving the query's results and punctuations
// over TCP or a unix socket (see DESIGN.md §"Serving & HA model").
//
// Usage:
//
//	punctserve -addr tcp://127.0.0.1:7341 -scenario auction \
//	    -checkpoint /var/tmp/auction.ckpt -checkpoint-every 2s
//
// With -checkpoint set the server restores from the file when it exists
// (crash failover: restart with the same flags and clients resume),
// checkpoints on the timer, and acks producers with durable offsets.
// SIGINT/SIGTERM trigger a graceful drain: producers are cut off, the
// runtime flushes, a final checkpoint is written, and subscribers
// receive everything up to the cut plus a clean end-of-stream marker.
//
// Warm-standby replication (DESIGN.md §3.10): start a primary with
// -repl-listen and a standby with -replica-of pointing at it. The
// standby mirrors the primary's ingress feed and promotes itself after
// -promote-timeout of primary silence; -advertise tells clients where
// to find this server when the peer redirects them. -tls-cert/-tls-key
// wrap the client listener in TLS and -auth-token requires producers,
// subscribers, replicas and probes to present a shared secret.
//
// `punctserve -probe addr` connects once, prints the peer's role,
// fencing epoch and committed per-source offsets, and exits 0 for a
// primary, 3 otherwise — usable as a liveness/role health check.
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"punctsafe/engine"
	"punctsafe/exec"
	"punctsafe/query"
	"punctsafe/server"
	"punctsafe/stream"
	"punctsafe/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "tcp://127.0.0.1:7341", "listen address: tcp://host:port or unix:///path")
		scenario   = flag.String("scenario", "auction", "query to serve: auction | netmon | sensors")
		views      = flag.Int("views", 1, "serve N fingerprint-equal views of the scenario query (shared-subplan execution: one physical tree serves all N; subscribers attach by view name view1..viewN-1)")
		partitions = flag.Int("partitions", 1, "hash-partitioned join replicas (1 = single tree)")
		softLimit  = flag.Int("soft-state-limit", 0, "soft per-replica state bound: crossing it forces a purge round and logs pressure (0 = off)")
		onError    = flag.String("on-error", "quarantine", "runtime error policy: fail | drop | quarantine")
		enforce    = flag.Bool("enforce", false, "fail tuples that violate an already-seen punctuation promise")
		ckptPath   = flag.String("checkpoint", "", "durable checkpoint file (enables restore-at-start, periodic checkpoints, producer acks)")
		ckptEvery  = flag.Duration("checkpoint-every", 2*time.Second, "background checkpoint interval (needs -checkpoint)")
		queue      = flag.Int("queue", 256, "per-subscriber pending backlog before the slow-consumer policy applies")
		retain     = flag.Int("retain", 1024, "recent deliveries retained per query for reconnecting subscribers")
		slow       = flag.String("slow", "block", "slow-consumer policy: block | drop | disconnect")
		drain      = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound on subscriber drain")
		quiet      = flag.Bool("quiet", false, "suppress connection logs")

		replListen = flag.String("repl-listen", "", "replication listen address for warm standbys (tcp://host:port or unix:///path)")
		replicaOf  = flag.String("replica-of", "", "run as warm standby of the primary at this replication address")
		promote    = flag.Duration("promote-timeout", 3*time.Second, "standby self-promotes after this much primary silence (0 = never)")
		advertise  = flag.String("advertise", "", "address clients should be redirected to for this server (defaults to -addr)")
		tlsCert    = flag.String("tls-cert", "", "serve the client listener over TLS with this certificate (needs -tls-key)")
		tlsKey     = flag.String("tls-key", "", "private key for -tls-cert")
		authToken  = flag.String("auth-token", "", "shared secret all clients, replicas and probes must present")
		probeAddr  = flag.String("probe", "", "probe the server at this address (role/epoch/offsets) and exit; honours -auth-token and -probe-tls")
		probeTLS   = flag.Bool("probe-tls", false, "probe over TLS, skipping certificate verification")
	)
	flag.Parse()

	if *probeAddr != "" {
		os.Exit(probe(*probeAddr, *authToken, *probeTLS))
	}

	policy, err := engine.ParseErrorPolicy(*onError)
	if err != nil {
		fatal(err)
	}
	slowPolicy, err := server.ParseSlowPolicy(*slow)
	if err != nil {
		fatal(err)
	}
	q, schemes, err := servedScenario(*scenario)
	if err != nil {
		fatal(err)
	}
	if *partitions < 1 {
		fatal(fmt.Errorf("-partitions %d: need at least 1", *partitions))
	}
	enginePartitions := 0
	if *partitions > 1 {
		enginePartitions = *partitions
	}
	schemas := make([]*stream.Schema, q.N())
	for i := range schemas {
		schemas[i] = q.Stream(i)
	}

	if (*tlsCert == "") != (*tlsKey == "") {
		fatal(fmt.Errorf("punctserve: -tls-cert and -tls-key must be set together"))
	}
	l, err := listen(*addr)
	if err != nil {
		fatal(err)
	}
	if *tlsCert != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			fatal(err)
		}
		l = tls.NewListener(l, &tls.Config{Certificates: []tls.Certificate{cert}})
	}
	var rl net.Listener
	if *replListen != "" {
		rl, err = listen(*replListen)
		if err != nil {
			fatal(err)
		}
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "punctserve: "+format+"\n", args...)
	}
	var viewRegs []*engine.Registered
	var trees int
	cfg := server.Config{
		Listener: l,
		Build: func(d *engine.DSMS) error {
			for _, s := range schemes.All() {
				d.RegisterScheme(s)
			}
			opts := engine.Options{
				EnforcePromises: *enforce,
				Partitions:      enginePartitions,
				SoftStateLimit:  *softLimit,
				// With -views > 1 every registration below folds onto one
				// shared physical tree (equal fingerprints).
				Share: *views > 1,
				OnPressure: func(ev exec.PressureEvent) {
					where := "single tree"
					if ev.Partition >= 0 {
						where = fmt.Sprintf("partition %d", ev.Partition)
					}
					logf("pressure: %s state %d over soft limit %d; relieved to %d",
						where, ev.State, ev.SoftLimit, ev.Relieved)
				},
			}
			reg, err := d.Register(*scenario, q, opts)
			if err != nil {
				return err
			}
			viewRegs = viewRegs[:0]
			viewRegs = append(viewRegs, reg)
			vopts := opts
			vopts.OnPressure = nil
			for v := 1; v < *views; v++ {
				vreg, err := d.Register(fmt.Sprintf("view%d", v), q, vopts)
				if err != nil {
					return err
				}
				viewRegs = append(viewRegs, vreg)
			}
			trees = d.PhysicalTrees()
			return nil
		},
		Schemas:         schemas,
		Runtime:         engine.RuntimeOptions{OnError: policy},
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		QueueLimit:      *queue,
		Retain:          *retain,
		Slow:            slowPolicy,
		DrainTimeout:    *drain,
		AuthToken:       *authToken,
		Advertise:       *advertise,
		ReplListener:    rl,
		ReplicaOf:       *replicaOf,
		PromoteTimeout:  *promote,
	}
	if !*quiet {
		// The server package prefixes its own messages with "punctserve:".
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	role := "primary"
	if *replicaOf != "" {
		role = fmt.Sprintf("standby of %s", *replicaOf)
		go func() {
			<-srv.Promoted()
			logf("promoted to primary (epoch %d)", srv.Epoch())
		}()
	}
	logf("serving %q on %s as %s (queue %d, retain %d, slow=%s)", *scenario, srv.Addr(), role, *queue, *retain, slowPolicy)
	if *views > 1 {
		logf("views: %d fingerprint-equal views over %d physical tree(s)", *views, trees)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logf("%s: draining (bounded by %v)", sig, *drain)
		srv.Shutdown()
	}()

	if err := srv.Wait(); err != nil {
		fatal(err)
	}
	if *views > 1 {
		logf("views: %d over %d physical tree(s); per-view delivery totals at drain:", *views, trees)
		printed := 0
		for _, vreg := range viewRegs {
			if printed >= 16 {
				logf("  ... (%d more views)", len(viewRegs)-printed)
				break
			}
			logf("  %-16s delivered %d", vreg.Name, vreg.Delivered())
			printed++
		}
	}
	logf("drained cleanly")
}

// listen opens the flag-specified listener. A unix path is unlinked
// first so a restart after kill -9 does not trip over the stale socket.
func listen(addr string) (net.Listener, error) {
	switch {
	case strings.HasPrefix(addr, "unix://"):
		path := strings.TrimPrefix(addr, "unix://")
		os.Remove(path)
		return net.Listen("unix", path)
	case strings.HasPrefix(addr, "tcp://"):
		return net.Listen("tcp", strings.TrimPrefix(addr, "tcp://"))
	default:
		return net.Listen("tcp", addr)
	}
}

func servedScenario(name string) (*query.CJQ, *stream.SchemeSet, error) {
	switch name {
	case "auction":
		return workload.AuctionQuery(), workload.AuctionSchemes(), nil
	case "netmon":
		return workload.NetMonQuery(), workload.NetMonSchemes(), nil
	case "sensors":
		return workload.SensorQuery(), workload.SensorSchemes(), nil
	default:
		return nil, nil, fmt.Errorf("unknown scenario %q (auction | netmon | sensors)", name)
	}
}

// probe connects once to addr, prints the peer's role, fencing epoch
// and committed per-source offsets, and returns the process exit code:
// 0 for a reachable primary, 3 for a standby or fenced peer, 2 on error.
func probe(addr, token string, useTLS bool) int {
	d := server.Dialer{Addr: addr, AuthToken: token}
	if useTLS {
		d.TLS = &tls.Config{InsecureSkipVerify: true}
	}
	h, err := d.Probe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "punctserve: probe:", err)
		return 2
	}
	fmt.Printf("role=%s epoch=%d\n", h.Role, h.Epoch)
	srcs := make([]string, 0, len(h.Offsets))
	for src := range h.Offsets {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		fmt.Printf("source %s committed %d\n", src, h.Offsets[src])
	}
	if h.Role != "primary" {
		return 3
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "punctserve:", err)
	os.Exit(2)
}
