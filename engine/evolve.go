package engine

import (
	"fmt"
	"strings"

	"punctsafe/query"
	"punctsafe/safety"
	"punctsafe/stream"
)

// DropScheme removes a punctuation scheme from the query register. Since
// a scheme is a promise the application makes, withdrawing it can strip a
// registered query of its safety guarantee; the call therefore re-checks
// every registered query against the reduced scheme set first and refuses
// (listing the victims) unless force is set, in which case the
// newly-unsafe queries are unregistered. It returns the names of the
// queries affected.
func (d *DSMS) DropScheme(s stream.Scheme, force bool) ([]string, error) {
	if !d.schemes.Remove(s) {
		return nil, fmt.Errorf("engine: scheme %s is not registered", s)
	}
	var unsafe []string
	for _, name := range d.order {
		r := d.queries[name]
		rep, err := safety.Check(r.Query, d.schemes)
		if err != nil {
			d.schemes.Add(s)
			return nil, err
		}
		if !rep.Safe {
			unsafe = append(unsafe, name)
		}
	}
	if len(unsafe) > 0 && !force {
		d.schemes.Add(s) // restore
		return unsafe, fmt.Errorf("engine: dropping %s would make %d registered query(ies) unsafe: %s",
			s, len(unsafe), strings.Join(unsafe, ", "))
	}
	for _, name := range unsafe {
		d.Unregister(name)
	}
	return unsafe, nil
}

// Live query evolution: Attach registers a new continuous query on a
// RUNNING sharded runtime and Detach removes one, neither draining the
// runtime nor pausing unrelated shards. Both take the runtime's close
// lock exclusively — the same serialization Close and Checkpoint use —
// so the registration maps mutate with no producer in flight, and the
// actual subscription cut travels to the owning worker as a mailbox (or
// partition-control) message, landing on an exact element boundary.

// Attach admits a query while the runtime runs. A Share registration
// whose fingerprint matches a live share group attaches to that group's
// physical tree instantly — the new subscriber starts receiving outputs
// from the next element the tree processes, with its delivery sequence
// starting at 1. Any other registration (unshared, or a new fingerprint)
// spawns a fresh shard whose tree starts empty — it joins only tuples
// sent after the attach, exactly like a newly registered view in any
// catalog. Safety checking, plan choice, and option validation are those
// of Register.
func (rt *Runtime) Attach(name string, q *query.CJQ, opts Options) (*Registered, error) {
	return rt.attach(name, q, opts, nil)
}

// attach is Attach with an optional wiring callback, run while the
// exclusive lock is held and BEFORE the registration is published to the
// router or its shard — so delivery-side hooks (projection, filter,
// result sink) are in place before any worker or producer can observe
// the new member.
func (rt *Runtime) attach(name string, q *query.CJQ, opts Options, wire func(*Registered) error) (*Registered, error) {
	rt.closeMu.Lock()
	defer rt.closeMu.Unlock()
	if rt.closed {
		return nil, fmt.Errorf("engine: runtime: Attach after Close")
	}
	r, err := rt.d.Register(name, q, opts)
	if err != nil {
		return nil, err
	}
	if wire != nil {
		if err := wire(r); err != nil {
			rt.d.Unregister(name)
			return nil, err
		}
	}
	if len(r.group.members) > 1 {
		// Joined an existing group: subscribe on the live shard. The
		// membership list is already updated (producers will fan router-
		// side dead letters to the new member from the next send); the
		// worker applies the delivery cut at this message's FIFO position.
		s := rt.byName[r.group.members[0].Name]
		rt.byName[name] = s
		s.control(&shardCtrl{attach: r})
		return r, nil
	}
	rt.spawnShard(r)
	return r, nil
}

// AttachSQL is Attach for a streamsql script: every SELECT statement is
// admitted as <prefix>#<n> on the running runtime, with the script's
// filters and projection installed and the share tag canonicalized as in
// RegisterSQL. On any error the statements already attached by this call
// are detached again.
func (rt *Runtime) AttachSQL(prefix, src string, opts Options) ([]*Registered, error) {
	compiled, err := compileSQL(rt.d, src)
	if err != nil {
		return nil, err
	}
	var regs []*Registered
	for i, cq := range compiled {
		name := fmt.Sprintf("%s#%d", prefix, i+1)
		reg, err := rt.attachCompiled(name, cq, opts)
		if err != nil {
			for _, r := range regs {
				rt.Detach(r.Name)
			}
			return nil, fmt.Errorf("engine: %s: %w", name, err)
		}
		regs = append(regs, reg)
	}
	return regs, nil
}

// Detach removes a registered query from a running runtime. A share-
// group member stops receiving outputs at a mailbox boundary and the
// tree runs on for the remaining subscribers; the last subscriber's
// departure retires the physical tree at its final purge-flush barrier
// (outputs of the flush go nowhere — every subscriber is gone), freeing
// its state without disturbing any other shard.
func (rt *Runtime) Detach(name string) error {
	rt.closeMu.Lock()
	defer rt.closeMu.Unlock()
	if rt.closed {
		return fmt.Errorf("engine: runtime: Detach after Close")
	}
	s, ok := rt.byName[name]
	if !ok {
		return fmt.Errorf("engine: no query %q", name)
	}
	rt.d.Unregister(name)
	delete(rt.byName, name)
	s.control(&shardCtrl{detach: name})
	if len(s.group.members) > 0 {
		return nil
	}
	// Last subscriber gone: retire the tree. With the subscription cut
	// queued, unroute (no producer is in flight under the exclusive lock,
	// and none can enqueue later) and close the input; the worker drains,
	// flushes, and exits. The shard stays in rt.shards (Wait still joins
	// it) but Close and Checkpoint skip it.
	s.retired = true
	for streamName := range s.reg.streamInput {
		routes := rt.route[streamName]
		for i, rs := range routes {
			if rs == s {
				rt.route[streamName] = append(routes[:i], routes[i+1:]...)
				break
			}
		}
	}
	if s.pf != nil {
		s.pf.close()
	} else {
		s.mb.close()
	}
	return nil
}
