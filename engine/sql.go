package engine

import (
	"fmt"

	"punctsafe/exec"
	"punctsafe/stream"
	"punctsafe/streamsql"
)

// RegisterSQL runs a streamsql script against the DSMS: stream
// declarations register their schemas, DECLARE SCHEME statements add to
// the query register's scheme set, and each SELECT statement is admitted
// as a continuous query named <prefix>#<n> — with its literal filters
// applied as selections in front of the join and its select list applied
// as a projection over the join output. Unsafe queries are rejected, as
// in Register. Under Options.Share the literal filters are canonicalized
// into the share tag, so two SQL views share one physical tree exactly
// when their joins AND their filters agree (projections stay per-view —
// they live on the delivery side and never block sharing).
func (d *DSMS) RegisterSQL(prefix, src string, opts Options) ([]*Registered, error) {
	compiled, err := compileSQL(d, src)
	if err != nil {
		return nil, err
	}
	var regs []*Registered
	for i, cq := range compiled {
		name := fmt.Sprintf("%s#%d", prefix, i+1)
		reg, err := d.registerCompiled(name, cq, opts)
		if err != nil {
			// Roll back the queries this call already registered so a
			// failing script leaves the DSMS unchanged.
			for _, r := range regs {
				d.Unregister(r.Name)
			}
			return nil, fmt.Errorf("engine: %s: %w", name, err)
		}
		regs = append(regs, reg)
	}
	return regs, nil
}

// compileSQL parses a script, registers its declared schemes on the
// DSMS, and compiles its SELECT statements.
func compileSQL(d *DSMS, src string) ([]*streamsql.CompiledQuery, error) {
	script, err := streamsql.Parse(src)
	if err != nil {
		return nil, err
	}
	for _, s := range script.Schemes.All() {
		d.RegisterScheme(s)
	}
	return streamsql.Compile(script)
}

func (d *DSMS) registerCompiled(name string, cq *streamsql.CompiledQuery, opts Options) (*Registered, error) {
	reg, err := d.Register(name, cq.Query, sqlExecOpts(cq, opts))
	if err != nil {
		return nil, err
	}
	if err := wireCompiled(reg, cq); err != nil {
		d.Unregister(name)
		return nil, err
	}
	return reg, nil
}

// sqlExecOpts derives the options a compiled SQL query registers with:
// under Share the canonical filter key joins the share tag — filters
// select which tuples enter the tree, so they are part of the physical
// tree's identity.
func sqlExecOpts(cq *streamsql.CompiledQuery, opts Options) Options {
	if opts.Share {
		opts.ShareTag = "sql:" + cq.FilterKey() + "|" + opts.ShareTag
	}
	return opts
}

// wireCompiled installs a compiled query's delivery-side behavior on its
// registration: the projection over the join output (applied by
// Registered.deliver on every delivery path, a delivery hook's included)
// and the per-stream literal filters. Filters are keyed by the
// registration's live stream indices (reg.streamInput), which for a
// share-group follower are the DRIVER's indices — the index space the
// router actually routes in.
func wireCompiled(reg *Registered, cq *streamsql.CompiledQuery) error {
	if len(cq.Projection) > 0 {
		project, err := exec.NewProject(reg.OutputSchema(), cq.Projection...)
		if err != nil {
			return err
		}
		reg.project, reg.Output = project, project.OutputSchema()
	}

	// Per-stream literal filters, evaluated before elements reach the
	// plan (tuples failing a filter are dropped; punctuations always
	// pass — the Select operator's rule).
	if len(cq.Filters) > 0 {
		filters := make(map[int][]streamsql.CompiledFilter)
		for _, f := range cq.Filters {
			input := reg.streamInput[cq.Query.Stream(f.Stream).Name()]
			filters[input] = append(filters[input], f)
		}
		reg.filter = func(input int, t stream.Tuple) bool {
			for _, f := range filters[input] {
				if !t.Values[f.Attr].Equal(f.Value) {
					return false
				}
			}
			return true
		}
	}
	return nil
}
