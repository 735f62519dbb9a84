package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"punctsafe/engine"
	"punctsafe/stream"
	"punctsafe/workload"
)

func wireBytes(t *testing.T, f *feed) []byte {
	t.Helper()
	var buf bytes.Buffer
	ww := engine.NewWireWriter(&buf, f.schemas...)
	for i, e := range f.elems {
		if err := ww.Write(f.names[f.sidx[i]], e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestFeedsAreAFunctionOfTheSeed(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b, c := makeFeed(sp, 7, 5000), makeFeed(sp, 7, 5000), makeFeed(sp, 8, 5000)
		if !bytes.Equal(wireBytes(t, a), wireBytes(t, b)) {
			t.Errorf("%s: two feeds from seed 7 differ", sp.name)
		}
		if bytes.Equal(wireBytes(t, a), wireBytes(t, c)) {
			t.Errorf("%s: feeds from seeds 7 and 8 are identical", sp.name)
		}
		if a.tuples == 0 || a.puncts == 0 {
			t.Errorf("%s: %d tuples, %d punctuations", sp.name, a.tuples, a.puncts)
		}
	}
}

func TestSensorFeedIsWorkloadSensor(t *testing.T) {
	for _, cfg := range []workload.SensorConfig{
		{Epochs: 40, ReadingsPerEpoch: 4, Disorder: 16, HeartbeatEvery: 8, Heartbeats: true, Seed: 3},
		{Epochs: 25, ReadingsPerEpoch: 2, Disorder: 0, HeartbeatEvery: 1, Heartbeats: true, Seed: 4},
		{Epochs: 30, ReadingsPerEpoch: 3, Disorder: 5, HeartbeatEvery: 7, Heartbeats: false, Seed: 5},
	} {
		if got, want := sensorFeed(cfg), workload.Sensor(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: bucketed generator diverges from workload.Sensor (%d vs %d elements)", cfg, len(got), len(want))
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	// Expected quartiles are statistics.quantiles(values, n=4) in Python.
	for _, tc := range []struct {
		values      []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	} {
		q1, q3 := quartiles(tc.values)
		if q1 != tc.q1 || q3 != tc.q3 || median(tc.values) != tc.med {
			t.Errorf("%v: quartiles %g, %g median %g; want %g, %g, %g", tc.values, q1, q3, median(tc.values), tc.q1, tc.q3, tc.med)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{50: 50, 99: 99, 99.9: 100, 100: 100, 1: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%g) = %d, want %d", p, got, want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d", got)
	}
	if lo, hi := best([]float64{3, 1, 2}, "lower"), best([]float64{3, 1, 2}, "higher"); lo != 1 || hi != 3 {
		t.Errorf("best = %g (lower), %g (higher); want 1, 3", lo, hi)
	}
	// 640 latencies in arrival order, the second half ten times the first:
	// ten windows of 64, each with its own median.
	lat := make([]int64, 640)
	for i := range lat {
		lat[i] = int64(1+i%64) * 1e6
		if i >= 320 {
			lat[i] *= 10
		}
	}
	want := []float64{32, 32, 32, 32, 32, 320, 320, 320, 320, 320}
	if got := windowP50s(lat); !reflect.DeepEqual(got, want) {
		t.Errorf("windowP50s = %v, want %v", got, want)
	}
	if got := windowP50s(lat[:40]); len(got) != 1 {
		t.Errorf("windowP50s of 40 samples = %v, want one window", got)
	}
	if got := windowP50s(nil); len(got) != 0 {
		t.Errorf("windowP50s of nothing = %v", got)
	}
}

// Every result must be exactly the concatenation of the input tuples its
// send-index columns name: the stamp survives the join, in every query.
func TestSendIndexSurvivesTheJoin(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		l, _, err := setup(sp, 11, 4000)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		idxColOf := make([]int, l.f.q.N())
		for _, c := range l.idxCols {
			idxColOf[l.layout[c].stream] = c
		}
		d := engine.New()
		results := 0
		_, err = register(d, l.f, 0, func(res stream.Tuple) {
			results++
			for c, col := range l.layout {
				i := sendIndex(res.Values[idxColOf[col.stream]])
				if i < 0 || i >= len(l.f.elems) || l.f.elems[i].IsPunct() || int(l.f.sidx[i]) != col.stream {
					t.Fatalf("%s: result %v names send index %d, which is not a %s tuple", sp.name, res, i, l.f.names[col.stream])
				}
				if want := l.f.elems[i].Tuple().Values[col.attr]; !res.Values[c].Equal(want) {
					t.Fatalf("%s: result column %d is %v, input %d has %v", sp.name, c, res.Values[c], i, want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range l.f.elems {
			if err := d.Push(l.f.names[l.f.sidx[i]], e); err != nil {
				t.Fatalf("%s: element %d: %v", sp.name, i, err)
			}
		}
		if results != l.want.count {
			t.Errorf("%s: %d results, oracle says %d", sp.name, results, l.want.count)
		}
	}
}

// fakeClock only moves when told to: by a sleep, or by a send that
// "takes" time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

func TestPacerTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	const ms = time.Millisecond
	var started []time.Duration
	late, wake, err := pace(clk, 9, func(k int) error {
		started = append(started, clk.now)
		if k == 2 {
			clk.now += 5 * ms // the system stalls the sender
		} else {
			clk.now += ms / 5
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tick 2 starts on time at 2 ms and returns at 7 ms; ticks 3..7 were
	// due at 3..7 ms and go out back to back from 7 ms; tick 8 is on time.
	wantStart := []time.Duration{0, 1 * ms, 2 * ms, 7 * ms, 7*ms + ms/5, 7*ms + 2*ms/5, 7*ms + 3*ms/5, 7*ms + 4*ms/5, 8 * ms}
	if !reflect.DeepEqual(started, wantStart) {
		t.Fatalf("ticks started at %v, want %v", started, wantStart)
	}
	for k := range late {
		if want := wantStart[k] - time.Duration(k)*ms; late[k] != want {
			t.Errorf("tick %d: late %v, want %v (measured from its due time)", k, late[k], want)
		}
		if wake[k] != 0 {
			t.Errorf("tick %d: the fake sender never dawdles, yet wake lateness is %v", k, wake[k])
		}
	}

	// A result whose newest input was due in tick 3 and which arrives at
	// 7.5 ms has waited 4.5 ms, although its input left only 0.5 ms ago.
	c := &consumer{idxCols: []int{0, 1}, clk: clk, perTick: 10}
	c.newest.Store(-1)
	clk.now = 7*ms + ms/2
	c.onResult(stream.NewTuple(stream.Int(12), stream.Float(35)))
	if len(c.lat) != 1 || time.Duration(c.lat[0]) != 4*ms+ms/2 {
		t.Errorf("latency %v, want 4.5ms from the due time of send index 35", c.lat)
	}
	if c.newest.Load() != 35 || c.received.Load() != 1 {
		t.Errorf("newest %d received %d", c.newest.Load(), c.received.Load())
	}
}

func useTempOutDir(t *testing.T) {
	t.Helper()
	old := outDir
	outDir = t.TempDir()
	t.Cleanup(func() { outDir = old })
}

// The smoke run is the real benchmark at about a second per workload; it
// must still agree with the oracle and report every end-to-end metric.
func TestSmokeRunPassesTheOracle(t *testing.T) {
	useTempOutDir(t)
	file, err := runSet(specs, 5, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range file.Workloads {
		if w.OpsFailed != 0 || w.OpsAttempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.OpsFailed, w.OpsAttempted, w.Failures)
		}
		for _, d := range endToEnd {
			if m, ok := w.EndToEnd[d.Name]; !ok || !(m.Value > 0) {
				t.Errorf("%s: %s = %v", w.Name, d.Name, m.Value)
			}
		}
		if w.Paced.Samples == 0 {
			t.Errorf("%s: the paced phase timed no result", w.Name)
		}
	}
	if file.Env.NProc == 0 || file.Env.GOMAXPROCS == 0 || file.Env.GoVersion == "" || file.Env.Seed != 5 {
		t.Errorf("environment not recorded: %+v", file.Env)
	}
}

// The ladder on a small feed: every per-layer metric is emitted, every
// rung agrees with the oracle, and the trace file is written.
func TestLadderEmitsEveryPerLayerMetric(t *testing.T) {
	useTempOutDir(t)
	sp, err := findSpec("join-chain4")
	if err != nil {
		t.Fatal(err)
	}
	w, err := runTraced(sp, 9, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if w.OpsFailed != 0 {
		t.Errorf("%d operations failed: %v", w.OpsFailed, w.Failures)
	}
	for _, d := range perLayer {
		if _, ok := w.PerLayer[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	if len(w.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics emitted, %d declared", len(w.PerLayer), len(perLayer))
	}
	data, err := os.ReadFile(w.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Totals map[string]spanTotal
		Spans  []span
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) == 0 || tr.Totals[spanNames[spanTuples]].Count == 0 {
		t.Errorf("trace file holds %d spans, totals %v", len(tr.Spans), tr.Totals)
	}
	for _, s := range tr.Spans {
		if s.EndNs < s.StartNs || s.Parent >= int32(len(tr.Spans)) {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// BENCHMARK.json is written by hand; the tables in main.go and
// workloads.go are what the program uses. They must say the same.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d in the program", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: json %q %q, code %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, eps, p50 float64, failed int) string {
		w := &workloadResult{Name: "join-chain4", OpsAttempted: 1000, OpsFailed: failed, EndToEnd: map[string]measurement{}}
		for _, d := range endToEnd {
			w.EndToEnd[d.Name] = measurement{Value: 100, N: 1}
		}
		w.EndToEnd["throughput_eps"] = measurement{Value: eps, N: 1}
		w.EndToEnd["latency_p50_ms"] = measurement{Value: p50, N: 1}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &resultFile{Workloads: []*workloadResult{w}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 10, 0)
	for _, tc := range []struct {
		name    string
		path    string
		wantErr bool
	}{
		{"same", write("same.json", 1000, 10, 0), false},
		{"within bounds", write("near.json", 950, 11, 0), false},
		{"better", write("better.json", 2000, 5, 0), false},
		{"slower", write("slow.json", 700, 10, 0), true},
		{"latency", write("late.json", 1000, 13, 0), true},
		{"failures", write("fail.json", 1000, 10, 3), true},
	} {
		if err := compareFiles(base, tc.path); (err != nil) != tc.wantErr {
			t.Errorf("%s: compare returned %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}
