package streamsql

import (
	"fmt"
	"sort"
	"strings"

	"punctsafe/query"
	"punctsafe/safety"
	"punctsafe/stream"
)

// CompiledQuery is one SELECT statement resolved against the script's
// declarations: the continuous join query, per-stream literal filters,
// the projection over the join output, and the safety verdict.
type CompiledQuery struct {
	Stmt *SelectStmt
	// Query is the continuous join query the FROM/WHERE clauses define.
	Query *query.CJQ
	// Filters are the literal-equality selections, resolved to (stream
	// index, attribute index, value).
	Filters []CompiledFilter
	// Projection names the join-output columns the SELECT list keeps
	// (<stream>_<attr>, matching exec.MJoin's output schema); nil for
	// SELECT *.
	Projection []string
	// Report is the safety analysis under the script's scheme set.
	Report *safety.Report
}

// CompiledFilter is a resolved literal filter.
type CompiledFilter struct {
	Stream int
	Attr   int
	Value  stream.Value
}

// FilterKey renders the query's literal filters canonically — sorted
// "stream.attr=value" terms keyed by stream and attribute NAME, so two
// statements whose filters agree produce the same key regardless of
// FROM-clause listing order or filter ordering. The engine folds this
// into the share tag: filters decide which tuples enter a shared tree,
// so they are part of the tree's physical identity (projections are
// not — they apply per-subscriber on the way out).
func (cq *CompiledQuery) FilterKey() string {
	terms := make([]string, len(cq.Filters))
	for i, f := range cq.Filters {
		sc := cq.Query.Stream(f.Stream)
		terms[i] = sc.Name() + "." + sc.Attr(f.Attr).Name + "=" + f.Value.String()
	}
	sort.Strings(terms)
	return strings.Join(terms, "&")
}

// Compile resolves and safety-checks every SELECT statement of a parsed
// script. Queries that fail to resolve return errors; unsafe queries
// compile with Report.Safe == false (rejecting them is the caller's
// policy decision, as in the engine's query register).
func Compile(script *Script) ([]*CompiledQuery, error) {
	byName := make(map[string]*stream.Schema, len(script.Streams))
	for _, sc := range script.Streams {
		byName[sc.Name()] = sc
	}
	var out []*CompiledQuery
	for qi, stmt := range script.Queries {
		cq, err := compileSelect(stmt, byName, script.Schemes)
		if err != nil {
			return nil, fmt.Errorf("streamsql: query %d: %w", qi+1, err)
		}
		out = append(out, cq)
	}
	return out, nil
}

func compileSelect(stmt *SelectStmt, byName map[string]*stream.Schema, schemes *stream.SchemeSet) (*CompiledQuery, error) {
	if len(stmt.From) < 2 {
		return nil, fmt.Errorf("continuous join queries need at least two streams in FROM, got %d", len(stmt.From))
	}
	idx := make(map[string]int, len(stmt.From))
	schemas := make([]*stream.Schema, 0, len(stmt.From))
	for i, name := range stmt.From {
		sc, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("FROM references undeclared stream %q", name)
		}
		if _, dup := idx[name]; dup {
			return nil, fmt.Errorf("stream %q appears twice in FROM (self-joins are not supported)", name)
		}
		idx[name] = i
		schemas = append(schemas, sc)
	}

	resolve := func(ref ColRef) (int, int, error) {
		si, ok := idx[ref.Stream]
		if !ok {
			return 0, 0, fmt.Errorf("reference %s: stream not in FROM", ref)
		}
		ai := schemas[si].Index(ref.Column)
		if ai < 0 {
			return 0, 0, fmt.Errorf("reference %s: no such column", ref)
		}
		return si, ai, nil
	}

	var preds []query.Predicate
	for _, jp := range stmt.Joins {
		ls, la, err := resolve(jp.Left)
		if err != nil {
			return nil, err
		}
		rs, ra, err := resolve(jp.Right)
		if err != nil {
			return nil, err
		}
		preds = append(preds, query.Predicate{Left: ls, LeftAttr: la, Right: rs, RightAttr: ra})
	}
	q, err := query.NewCJQ(schemas, preds)
	if err != nil {
		return nil, err
	}

	cq := &CompiledQuery{Stmt: stmt, Query: q}
	for _, fp := range stmt.Filters {
		si, ai, err := resolve(fp.Col)
		if err != nil {
			return nil, err
		}
		if got, want := fp.Value.Kind(), schemas[si].Attr(ai).Kind; got != want {
			return nil, fmt.Errorf("filter %s = %s: literal kind %s does not match column kind %s",
				fp.Col, fp.Value, got, want)
		}
		cq.Filters = append(cq.Filters, CompiledFilter{Stream: si, Attr: ai, Value: fp.Value})
	}
	if !stmt.Star {
		for _, c := range stmt.Columns {
			si, _, err := resolve(c)
			if err != nil {
				return nil, err
			}
			_ = si
			cq.Projection = append(cq.Projection, c.Stream+"_"+c.Column)
		}
	}
	rep, err := safety.Check(q, schemes)
	if err != nil {
		return nil, err
	}
	cq.Report = rep
	return cq, nil
}
