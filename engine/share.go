package engine

import (
	"fmt"

	"punctsafe/stream"
)

// Shared-subplan execution (NiagaraCQ-style common-subplan sharing):
// every registered query belongs to exactly one shareGroup. An unshared
// query is a singleton group; queries registered with Options.Share
// whose canonical fingerprints (plan.Fingerprint over the join shape,
// streams, equality classes, schemes, and execution config) collide are
// folded into one group that owns a single physical executor. The first
// member — the group's driver — holds the exec.Tree/PartitionedTree;
// later members alias it. Input gating, pushes, sweeps and flushes run
// once per group; outputs fan out to every member's delivery path
// (callbacks, Results buffer, delivery hook, per-member sequence
// numbers), so each subscriber observes exactly the element stream an
// independent tree would have produced, at O(subscribers) per delivery
// instead of O(copies) of the join work.

// shareGroup ties the queries sharing one physical executor together.
// members is ordered by registration; members[0] is the driver whose
// Tree/Part every member aliases. The slice changes only at Register and
// Unregister, before a runtime starts: membership is fixed while one runs.
type shareGroup struct {
	fp      string // plan.Fingerprint; "" for unshared singleton groups
	members []*Registered
}

// driver returns the member that owns the physical executor.
func (g *shareGroup) driver() *Registered { return g.members[0] }

// deliver fans one output batch out to every member.
func (g *shareGroup) deliver(outs []stream.Element) {
	for _, m := range g.members {
		m.deliver(outs)
	}
}

// removeMember drops the named member, returning whether it was found.
func (g *shareGroup) removeMember(name string) bool {
	for i, m := range g.members {
		if m.Name == name {
			g.members = append(g.members[:i], g.members[i+1:]...)
			return true
		}
	}
	return false
}

// shareConfigTag folds every Options knob that changes the physical
// executor's behavior — but is invisible to plan.Fingerprint — into the
// fingerprint's config tag. Callback options (OnResult, OnPressure, ...)
// are deliberately absent: delivery-side callbacks are per-member, and
// the pressure observer rides the driver's config (documented on
// Options.Share).
func shareConfigTag(o Options) string {
	return fmt.Sprintf("pb=%d;pl=%d;pp=%t;sl=%d;ssl=%d;ep=%t;parts=%d;user=%s",
		o.PurgeBatch, o.PunctLifespan, o.PurgePunctuations, o.StateLimit, o.SoftStateLimit,
		o.EnforcePromises, o.Partitions, o.ShareTag)
}

// isDriver reports whether this member owns its group's physical
// executor.
func (r *Registered) isDriver() bool { return r.group.members[0] == r }

// SharedWith returns the names of the other queries sharing this query's
// physical tree, in registration order (empty for an unshared query).
func (r *Registered) SharedWith() []string {
	var out []string
	for _, m := range r.group.members {
		if m != r {
			out = append(out, m.Name)
		}
	}
	return out
}

// PhysicalTrees counts the distinct physical executors behind the
// registered queries: each share group contributes one regardless of how
// many members subscribe to it.
func (d *DSMS) PhysicalTrees() int {
	n := 0
	for _, name := range d.order {
		if d.queries[name].isDriver() {
			n++
		}
	}
	return n
}
