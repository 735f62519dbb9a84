package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanName identifies what a span wraps: a ladder rung, or one kind of
// call the bench makes into a layer.
type spanName uint8

const (
	rungCodec spanName = iota
	rungWire
	rungExec
	rungPush
	rungRuntime
	rungIngest
	rungServer
	spanEncode   // chunk of stream.Codec.Encode calls
	spanDecode   // chunk of stream.Codec.Decode calls
	spanWrite    // chunk of engine.WireWriter.Write calls
	spanRead     // chunk of engine.WireReader.Read calls
	spanTuples   // one exec.Tree.PushBatch call, tuples only
	spanPuncts   // one exec.Tree.PushBatch call, punctuations only
	spanPush     // chunk of engine.DSMS.Push calls
	spanSend     // one Runtime.SendBatch call, or one run of Producer.Send calls
	spanIngest   // one Runtime.IngestWire call
	spanDrain    // waiting for the system to finish what was sent
	numSpanNames // keep last
)

var spanNames = [numSpanNames]string{
	"rung:stream.Codec", "rung:engine.Wire", "rung:exec.Tree.PushBatch", "rung:engine.DSMS.Push",
	"rung:engine.Runtime.SendBatch", "rung:engine.Runtime.IngestWire", "rung:server",
	"stream.Codec.Encode[chunk]", "stream.Codec.Decode[chunk]",
	"engine.WireWriter.Write[chunk]", "engine.WireReader.Read[chunk]",
	"exec.Tree.PushBatch(tuples)", "exec.Tree.PushBatch(puncts)",
	"engine.DSMS.Push[chunk]", "send", "engine.Runtime.IngestWire", "drain",
}

// chunk is how many calls of a per-element API share one span, so the
// two clock reads of a span stay well under a percent of what it wraps.
const chunk = 256

// keptPerRung bounds how many call spans of one rung are kept one by one
// for the trace file; the totals count every span regardless.
const keptPerRung = 20000

// span is one timed interval, as written to the trace file. Times are
// nanoseconds since the trace began; Parent indexes the trace's span
// list (-1 for a rung); spans of one replay of the feed share Pass.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Pass    int32  `json:"pass"`
}

type spanTotal struct {
	Count int64 `json:"count"`
	Ns    int64 `json:"total_ns"`
}

// spanRef is an open span.
type spanRef struct {
	idx   int32 // position in tracer.spans, -1 when not kept
	name  spanName
	start int64
}

// tracer records spans in memory around the calls the bench makes into
// each layer. A nil tracer records nothing, so untraced passes run the
// same code with only a nil check per call.
type tracer struct {
	epoch  time.Time
	spans  []span
	totals [numSpanNames]spanTotal
	pass   int32
	budget int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name spanName, parent int32) spanRef {
	if t == nil {
		return spanRef{idx: -1}
	}
	ref := spanRef{idx: -1, name: name, start: int64(time.Since(t.epoch))}
	if parent < 0 {
		t.pass++
		t.budget = keptPerRung
	} else if t.budget == 0 {
		return ref
	} else {
		t.budget--
	}
	ref.idx = int32(len(t.spans))
	t.spans = append(t.spans, span{Name: spanNames[name], StartNs: ref.start, Parent: parent, Pass: t.pass})
	return ref
}

func (t *tracer) end(r spanRef) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.totals[r.name].Count++
	t.totals[r.name].Ns += now - r.start
	if r.idx >= 0 {
		t.spans[r.idx].EndNs = now
	}
}

// ns returns the total time spent under spans of the given name.
func (t *tracer) ns(name spanName) float64 { return float64(t.totals[name].Ns) }

// write dumps the kept spans and the exact totals per span name.
func (t *tracer) write(path string) error {
	totals := make(map[string]spanTotal, numSpanNames)
	for i, tot := range t.totals {
		if tot.Count > 0 {
			totals[spanNames[i]] = tot
		}
	}
	data, err := json.Marshal(struct {
		Note   string               `json:"note"`
		Totals map[string]spanTotal `json:"totals"`
		Spans  []span               `json:"spans"`
	}{
		Note: "spans hold the first 20000 calls of each rung; totals count every call. " +
			"A rung's parent is -1; a call's parent is its rung's index in spans.",
		Totals: totals,
		Spans:  t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
