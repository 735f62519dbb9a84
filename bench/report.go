package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// resultFile is what one invocation writes under bench/out: where and
// how it ran, and everything each workload measured, raw values included.
type resultFile struct {
	Env       env               `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Time       string  `json:"time"`
}

func environment(seed int64, seconds float64, trace bool) env {
	sha := os.Getenv("BENCH_GIT_SHA") // bench/run.sh asks git; a bare checkout has none
	if sha == "" {
		sha = "unknown"
	}
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     sha,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// measurement is one metric's value in one run, with the median and
// quartiles of the raw samples it was taken from, or a single reading.
type measurement struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median,omitempty"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw,omitempty"`
}

// measure reports the median: for the counts of what the program did,
// which no pass gets wrong.
func measure(raw []float64) measurement {
	q1, q3 := quartiles(raw)
	return measurement{Value: median(raw), Median: median(raw), Q1: q1, Q3: q3, N: len(raw), Raw: raw}
}

// measureBest reports the best sample: for the times, see best.
func measureBest(raw []float64, better string) measurement {
	m := measure(raw)
	m.Value = best(raw, better)
	return m
}

type workloadResult struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	Params    map[string]any `json:"params"`
	Transport string         `json:"transport"`
	PacedRate int            `json:"paced_rate_eps"`

	Elements       int    `json:"feed_elements"`
	Tuples         int    `json:"feed_tuples"`
	Puncts         int    `json:"feed_punctuations"`
	OracleResults  int    `json:"oracle_results"`
	OracleChecksum string `json:"oracle_checksum"`

	EndToEnd map[string]measurement `json:"end_to_end,omitempty"`
	PerLayer map[string]measurement `json:"per_layer,omitempty"`
	// SelfNsPerElem is each layer's self time on the workload's own path
	// (traced runs): what the layer shares are read from.
	SelfNsPerElem map[string]float64 `json:"self_ns_per_elem,omitempty"`
	TraceFile     string             `json:"trace_file,omitempty"`

	Passes []pass       `json:"saturation_passes,omitempty"`
	Paced  *pacedResult `json:"paced_phase,omitempty"`

	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Failures     []string `json:"failures,omitempty"`
	Flags        []string `json:"flags,omitempty"`
}

func newWorkloadResult(sp *spec) *workloadResult {
	transport := "Runtime.SendBatch + Options.OnResult, in process"
	if sp.server {
		transport = "server.Server on a unix socket, 1 Producer, 1 Subscriber"
	}
	return &workloadResult{Name: sp.name, Why: sp.why, Params: sp.params, Transport: transport, PacedRate: sp.rate}
}

func (w *workloadResult) describe(l *loaded) {
	w.Elements, w.Tuples, w.Puncts = len(l.f.elems), l.f.tuples, l.f.puncts
	w.OracleResults, w.OracleChecksum = l.want.count, fmt.Sprintf("%016x", l.want.checksum)
}

func (w *workloadResult) absorb(phase string, p pass) {
	w.OpsAttempted += p.Elements
	w.OpsFailed += p.Failed
	for _, f := range p.Failures {
		w.Failures = append(w.Failures, phase+": "+f)
	}
}

// print writes every metric by name with its unit, then the one-line
// JSON object the driver reads as the last line of standard output.
func (w *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "== %s: %d elements (%d tuples, %d punctuations), %d reference results, checksum %s\n",
		w.Name, w.Elements, w.Tuples, w.Puncts, w.OracleResults, w.OracleChecksum)
	defs, got := endToEnd, w.EndToEnd
	if w.PerLayer != nil {
		defs, got = perLayer, w.PerLayer
	}
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]reading, len(defs))
	for _, d := range defs {
		m := got[d.Name]
		fmt.Fprintf(out, "%-42s %16.6g %-10s", d.Name, m.Value, d.Unit)
		if m.N > 1 && m.Raw != nil {
			fmt.Fprintf(out, " median %.6g q1 %.6g q3 %.6g n %d", m.Median, m.Q1, m.Q3, m.N)
		} else if m.N > 1 {
			fmt.Fprintf(out, " n %d", m.N)
		}
		fmt.Fprintln(out)
		metrics[d.Name] = reading{m.Value, d.Unit}
	}
	if w.Paced != nil {
		fmt.Fprintf(out, "paced phase: %d elements/s for %.2fs in %d segments, %d latency samples, generator p99 lateness %.3f ms\n",
			w.Paced.Rate, w.Paced.Seconds, len(w.Paced.Segments), w.Paced.Samples, w.Paced.GenLateP99Ms)
		for i, s := range w.Paced.Segments {
			fmt.Fprintf(out, "  segment %d: backlog %.0f elements at the midpoint, %.0f at the end\n", i+1, s.BacklogMid, s.BacklogEnd)
		}
	}
	for layer, ns := range w.SelfNsPerElem {
		fmt.Fprintf(out, "self time %-16s %10.1f ns/elem\n", layer, ns)
	}
	for _, f := range append(w.Flags, w.Failures...) {
		fmt.Fprintln(out, "!!", f)
	}
	fmt.Fprintf(out, "ops_attempted %d ops_failed %d\n", w.OpsAttempted, w.OpsFailed)
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{w.OpsFailed == 0, w.OpsAttempted, w.OpsFailed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(out, "%s\n", line)
}

// runAA runs two full untraced sets on this one binary and reports, per
// workload and end-to-end metric, how far the two medians differ and how
// wide each metric's own interquartile spread is: the noise floor a
// bound in BENCHMARK.json must clear twice over.
func runAA(todo []spec, seed int64, seconds float64) error {
	var sets [2]*resultFile
	for i := range sets {
		fmt.Printf("#### A/A set %d\n", i+1)
		var err error
		if sets[i], err = runSet(todo, seed, seconds, false); err != nil {
			return err
		}
	}
	fmt.Printf("\n| workload | metric | set 1 | set 2 | |diff| %% | IQR %% | bound %% |\n|---|---|---|---|---|---|---|\n")
	for wi, a := range sets[0].Workloads {
		b := sets[1].Workloads[wi]
		for _, d := range endToEnd {
			ma, mb := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			iqr := "-"
			if raw := append(append([]float64(nil), ma.Raw...), mb.Raw...); len(raw) > 1 {
				iqr = fmt.Sprintf("%.2f", spread(raw)*100)
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f | %s | %.0f |\n", a.Name, d.Name, ma.Value, mb.Value,
				math.Abs(mb.Value-ma.Value)/ma.Value*100, iqr, d.Bound*100)
		}
	}
	fmt.Println()
	for wi, a := range sets[0].Workloads {
		b := sets[1].Workloads[wi]
		fmt.Printf("%s: oracle %d results, checksum %s; repeats exactly: %v\n", a.Name, a.OracleResults, a.OracleChecksum,
			a.OracleResults == b.OracleResults && a.OracleChecksum == b.OracleChecksum)
	}
	return writeJSON(filepath.Join(outDir, "aa.json"), sets)
}

// compareFiles is the regression gate: it fails when, for any workload
// both files hold, an end-to-end metric of the new file is worse than the
// old one's by more than its bound, or a larger share of operations
// failed.
func compareFiles(oldPath, newPath string) error {
	load := func(path string) (map[string]*workloadResult, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		byName := make(map[string]*workloadResult, len(f.Workloads))
		for _, w := range f.Workloads {
			byName[w.Name] = w
		}
		return byName, nil
	}
	olds, err := load(oldPath)
	if err != nil {
		return err
	}
	news, err := load(newPath)
	if err != nil {
		return err
	}
	compared, worse := 0, 0
	for _, sp := range specs {
		o, n := olds[sp.name], news[sp.name]
		if o == nil || n == nil || o.EndToEnd == nil || n.EndToEnd == nil {
			continue
		}
		compared++
		for _, d := range endToEnd {
			ov, nv := o.EndToEnd[d.Name].Value, n.EndToEnd[d.Name].Value
			change := (nv - ov) / ov // > 0 is worse for "lower"
			if d.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if change > d.Bound {
				verdict = "WORSE"
				worse++
			}
			fmt.Printf("%-18s %-22s %14.6g -> %14.6g  %+7.2f%% worse (bound %.0f%%)  %s\n",
				sp.name, d.Name, ov, nv, change*100, d.Bound*100, verdict)
		}
		of := float64(o.OpsFailed) / float64(max(o.OpsAttempted, 1))
		nf := float64(n.OpsFailed) / float64(max(n.OpsAttempted, 1))
		if nf > of {
			fmt.Printf("%-18s ops_failed/ops_attempted rose from %.6f to %.6f  WORSE\n", sp.name, of, nf)
			worse++
		}
	}
	if compared == 0 {
		return fmt.Errorf("the two files share no workload with end-to-end metrics")
	}
	if worse > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds", worse)
	}
	return nil
}
