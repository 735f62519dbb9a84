package exec

import (
	"fmt"
	"io"
	"strings"
)

// TimelineSample is one observation of an operator tree's resource usage.
type TimelineSample struct {
	// Element is the 1-based count of raw elements processed so far.
	Element int
	// State is the total stored tuples across the tree.
	State int
	// PunctStore is the total stored punctuations.
	PunctStore int
	// Results is the cumulative result count reported by the caller.
	Results int
}

// Timeline samples a plan's resource usage every Every elements — the
// time-series view behind the experiments' state-over-time claims.
type Timeline struct {
	// Every is the sampling period in elements (default 1).
	Every   int
	count   int
	Samples []TimelineSample
}

// Observe is called once per processed element with the current totals;
// it records a sample on period boundaries.
func (tl *Timeline) Observe(tree *Tree, results int) {
	tl.ObserveTotals(tree.TotalState(), tree.TotalPunctStore(), results)
}

// ObserveTotals records from caller-supplied totals — for executors that
// are not a *Tree (e.g. a PartitionedTree's summed replica counters).
func (tl *Timeline) ObserveTotals(state, punctStore, results int) {
	tl.count++
	every := tl.Every
	if every <= 0 {
		every = 1
	}
	if tl.count%every != 0 {
		return
	}
	tl.Samples = append(tl.Samples, TimelineSample{
		Element:    tl.count,
		State:      state,
		PunctStore: punctStore,
		Results:    results,
	})
}

// WriteCSV emits the samples as CSV with a header row.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "element,state,punct_store,results\n"); err != nil {
		return err
	}
	var b strings.Builder
	for _, s := range tl.Samples {
		b.Reset()
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", s.Element, s.State, s.PunctStore, s.Results)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// MaxState returns the largest sampled state (0 when empty).
func (tl *Timeline) MaxState() int {
	max := 0
	for _, s := range tl.Samples {
		if s.State > max {
			max = s.State
		}
	}
	return max
}
