// Command bench is the repository's benchmark: four punctuated-join
// workloads, six end-to-end metrics each, and a traced ladder of
// per-layer metrics. See README.md in this directory; BENCHMARK.json at
// the repository root names every metric and its regression bound.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run (the driver's form)
//	bench -seed N                                     every workload, untraced
//	bench -aa                                         two full sets, compared
//	bench -smoke                                      every workload for about a second
//	bench -compare old.json new.json                  regression gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, with the share of the
// parent's median each may worsen by; BENCHMARK.json carries the same
// rows (a test keeps them equal). The bounds come from the A/A runs
// recorded in README.md.
var endToEnd = []metricDef{
	{"throughput_eps", "elements/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_elem", "us", "lower", 0.25},
	{"alloc_bytes_per_elem", "B", "lower", 0.02},
	{"state_peak_tuples", "tuples", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's metrics; they carry no bound.
var perLayer = []metricDef{
	{Name: "stream.codec.encode_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "stream.codec.decode_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "stream.codec.bytes_per_elem", Unit: "B", Better: "lower"},
	{Name: "engine.wire.write_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "engine.wire.read_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "engine.wire.read_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "engine.wire.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "exec.join.tuple_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "exec.join.results_per_elem", Unit: "count", Better: "higher"},
	{Name: "exec.purge.punct_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "exec.purge.checks_per_purged", Unit: "count", Better: "lower"},
	{Name: "exec.state.mean_tuples", Unit: "tuples", Better: "lower"},
	{Name: "exec.punctstore.peak_puncts", Unit: "puncts", Better: "lower"},
	{Name: "exec.allocs_per_elem", Unit: "count", Better: "lower"},
	{Name: "engine.push.overhead_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "engine.runtime.mailbox_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "engine.runtime.allocs_per_elem", Unit: "count", Better: "lower"},
	{Name: "engine.ingest.overhead_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "engine.partition.speedup_vs_p0", Unit: "ratio", Better: "higher"},
	{Name: "engine.partition.p1_overhead_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "engine.partition.skew_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.checkpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "engine.checkpoint.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "server.send_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "server.overhead_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "server.ack_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.start_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.register_ms", Unit: "ms", Better: "lower"},
	{Name: "safety.check_us", Unit: "us", Better: "lower"},
	{Name: "process.heap_retained_mb", Unit: "MB", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "latency.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.punct_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ladder.exec_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ladder.push_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ladder.runtime_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ladder.ingest_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ladder.server_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ladder.e2e_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ladder.residual_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// Shape of one untraced run of S seconds. The feed holds one second of
// input at the workload's paced rate. After one set-up and one pass that
// is thrown away as warm-up, the run is a sequence of rounds for S seconds
// (at least minRounds): in each round the feed is set up over and over for
// a quarter of a second, replayed closed-loop on fresh pipelines for a
// second, and replayed once open-loop on a fresh pipeline, which takes a
// second and is cut into windows. The timed metrics are the best set-up,
// pass and window of the run, see best in stats.go; the three kinds of
// work take turns so that each is spread over the whole run and gets every
// quiet moment of the host there is. The feed is kept this short on
// purpose: it lives on the Go heap next to the system under test, and the
// garbage collector's cycles lengthen with it, so a feed of many seconds
// puts the bench's own footprint into the latency tail; and the shorter a
// pass, the more passes of a run escape whatever else the host is doing.
const (
	feedSeconds = 1.0
	minRounds   = 2
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run (default: all)")
		seed         = flag.Int64("seed", 1, "seed the feeds are generated from")
		seconds      = flag.Float64("seconds", 28, "seconds one run measures for")
		trace        = flag.Int("trace", 0, "1: run the traced ladder and print the per-layer metrics")
		aa           = flag.Bool("aa", false, "run two full untraced sets back to back and compare them")
		smoke        = flag.Bool("smoke", false, "run every workload for about a second")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	)
	flag.Parse()
	if err := run(*workloadFlag, *seed, *seconds, *trace != 0, *aa, *smoke, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, aa, smoke, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds <= 0 || seconds > 60 {
		return fmt.Errorf("-seconds must be in (0, 60], got %g", seconds)
	}
	if smoke {
		seconds = 1
	}
	todo := specs
	if name != "" {
		sp, err := findSpec(name)
		if err != nil {
			return err
		}
		todo = []spec{*sp}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if aa {
		return runAA(todo, seed, seconds)
	}
	file, err := runSet(todo, seed, seconds, trace)
	if err != nil {
		return err
	}
	out := "result"
	if name != "" {
		out += "-" + name
	}
	if trace {
		out += "-trace"
	}
	if err := writeJSON(filepath.Join(outDir, out+".json"), file); err != nil {
		return err
	}
	for _, w := range file.Workloads {
		if w.OpsFailed > 0 {
			// The JSON line above already says correct:false; the exit
			// code stays 0 so the caller reads it.
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w.Name, w.OpsFailed, w.OpsAttempted)
		}
	}
	return nil
}

// runSet runs each workload once and prints its metrics, ending each
// with the one-line JSON summary the driver reads.
func runSet(todo []spec, seed int64, seconds float64, trace bool) (*resultFile, error) {
	file := &resultFile{Env: environment(seed, seconds, trace)}
	for i := range todo {
		var w *workloadResult
		var err error
		if trace {
			w, err = runTraced(&todo[i], seed, seconds)
		} else {
			w, err = runUntraced(&todo[i], seed, seconds)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", todo[i].name, err)
		}
		file.Workloads = append(file.Workloads, w)
		w.print(os.Stdout)
	}
	return file, nil
}

// feedSize is the number of elements the paced phase sends in one
// segment; a run shorter than four seconds (the smoke run) shrinks it.
func feedSize(sp *spec, seconds float64) int {
	return int(float64(sp.rate) * min(feedSeconds, seconds/4))
}

func runUntraced(sp *spec, seed int64, seconds float64) (*workloadResult, error) {
	w := newWorkloadResult(sp)
	n := feedSize(sp, seconds)
	segmentLen := time.Duration(float64(n) / float64(sp.rate) * float64(time.Second))
	var (
		l                                  *loaded
		setups, eps, cpu, alloc, peak, p50 []float64
		segments                           []segment
	)
	setUp := func() (err error) {
		l = nil
		runtime.GC() // the previous feed is garbage; do not bill its collection to this set-up
		var took time.Duration
		l, took, err = setup(sp, seed, n)
		setups = append(setups, took.Seconds())
		return err
	}
	onePass := func() error {
		p, err := l.saturate(l.start, nil, 0)
		if err != nil {
			return err
		}
		w.absorb(fmt.Sprintf("pass %d", len(w.Passes)+1), p)
		w.Passes = append(w.Passes, p)
		elems := float64(p.Elements)
		eps = append(eps, elems/p.Seconds)
		cpu = append(cpu, p.CPUSeconds*1e6/elems)
		alloc = append(alloc, float64(p.AllocBytes)/elems)
		peak = append(peak, float64(p.StatePeak))
		return nil
	}
	oneSegment := func() error {
		s, err := l.pacedSegment()
		if err != nil {
			return err
		}
		w.absorb(fmt.Sprintf("paced segment %d", len(segments)+1), s.pass)
		segments = append(segments, s)
		p50 = append(p50, s.WindowP50Ms...)
		return nil
	}
	// repeat runs step until d has passed, at least once.
	repeat := func(d time.Duration, step func() error) error {
		for start := time.Now(); ; {
			if err := step(); err != nil || time.Since(start) >= d {
				return err
			}
		}
	}

	// One pass unmeasured: the first through a new process runs on a cold
	// heap, cold caches and unfaulted pages.
	if err := setUp(); err != nil {
		return nil, err
	}
	w.describe(l)
	warm, err := l.saturate(l.start, nil, 0)
	if err != nil {
		return nil, err
	}
	w.absorb("warm-up pass", warm)

	// Rounds until the next one would end past the run's time.
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds()*float64(r+1)/float64(r) <= seconds; r++ {
		if err := repeat(segmentLen/4, setUp); err != nil {
			return nil, err
		}
		if err := repeat(segmentLen, onePass); err != nil {
			return nil, err
		}
		if err := oneSegment(); err != nil {
			return nil, err
		}
	}

	paced := pool(sp.rate, segments)
	if paced.Unsustainable {
		w.OpsFailed += int(paced.Seconds * float64(sp.rate))
		w.Failures = append(w.Failures, fmt.Sprintf("paced phase: backlog grows by %.0f elements over the second half of a segment: %d elements/s is not sustainable",
			paced.BacklogGrowth, sp.rate))
	}
	if paced.LateGenerator {
		w.Flags = append(w.Flags, fmt.Sprintf("generator p99 lateness %.3f ms exceeds 1 ms: latencies are suspect", paced.GenLateP99Ms))
	}
	w.Paced = &paced

	w.EndToEnd = map[string]measurement{
		"throughput_eps":       measureBest(eps, "higher"),
		"latency_p50_ms":       measureBest(p50, "lower"),
		"cpu_us_per_elem":      measureBest(cpu, "lower"),
		"alloc_bytes_per_elem": measure(alloc),
		"state_peak_tuples":    measure(peak),
		"setup_s":              measureBest(setups, "lower"),
	}
	return w, nil
}

func runTraced(sp *spec, seed int64, seconds float64) (*workloadResult, error) {
	w := newWorkloadResult(sp)
	l, _, err := setup(sp, seed, feedSize(sp, seconds))
	if err != nil {
		return nil, err
	}
	w.describe(l)
	tr := newTracer()
	res, err := l.climb(tr)
	if err != nil {
		return nil, err
	}
	w.OpsAttempted, w.OpsFailed, w.Failures = res.attempts, res.failed, res.failures
	w.Paced = &res.paced
	w.SelfNsPerElem = res.self
	w.PerLayer = make(map[string]measurement, len(res.metrics))
	for name, v := range res.metrics {
		w.PerLayer[name] = measurement{Value: v, N: 1}
	}
	w.TraceFile = filepath.Join(outDir, "trace-"+sp.name+".json")
	return w, tr.write(w.TraceFile)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
