// Package match finds SPARQL matches: subgraph homomorphisms from a query
// graph into an RDF data graph (Section 2.1 of the paper). It powers
// fragment construction (all matches of an access pattern), per-site
// subquery evaluation and cardinality statistics.
package match

import (
	"slices"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// Match is one homomorphism from the query graph into the data graph.
type Match struct {
	// Vertex maps query vertex index -> data vertex ID.
	Vertex []rdf.ID
	// Pred maps variable predicate names -> data property ID.
	Pred map[string]rdf.ID
	// Triples holds the matched data triple per query edge, aligned to
	// the query's edge order.
	Triples []rdf.Triple
}

// Options tunes a matching run.
type Options struct {
	// Limit stops the search after this many matches; 0 means unlimited.
	Limit int
	// VertexFilter, when non-nil, must approve every binding of query
	// vertex qv to data vertex id. Horizontal fragmentation uses this to
	// impose structural simple predicates. Fragments of one site request
	// evaluate concurrently and share the request's filter, so it must be
	// safe for concurrent use (pure functions over immutable state, like
	// the minterm filters, qualify).
	VertexFilter func(qv int, id rdf.ID) bool
}

// ForEach enumerates homomorphisms of q in g, invoking fn for each. The
// Match passed to fn is reused between calls; copy what you keep. fn
// returning false stops the enumeration early. Enumeration is sequential
// and deterministic: the same query over the same snapshot visits matches
// in the same order every time.
func ForEach(q *sparql.Graph, g *rdf.Snapshot, opts Options, fn func(*Match) bool) {
	if len(q.Edges) == 0 {
		return
	}
	s := &searcher{
		q:     q,
		g:     g,
		opts:  opts,
		order: edgeOrder(q, g),
		m: Match{
			Vertex:  make([]rdf.ID, len(q.Verts)),
			Pred:    make(map[string]rdf.ID),
			Triples: make([]rdf.Triple, len(q.Edges)),
		},
		bound: make([]bool, len(q.Verts)),
		fn:    fn,
	}
	// Pre-bind constant vertices; bail out if a constant is absent from g.
	for i, v := range q.Verts {
		if !v.IsVar() {
			s.m.Vertex[i] = v.Term
			s.bound[i] = true
		}
	}
	s.search(0)
}

// clone deep-copies a reused Match for retention beyond the ForEach
// callback.
func (m *Match) clone() Match {
	c := Match{
		Vertex:  append([]rdf.ID(nil), m.Vertex...),
		Triples: append([]rdf.Triple(nil), m.Triples...),
	}
	if len(m.Pred) > 0 {
		c.Pred = make(map[string]rdf.ID, len(m.Pred))
		for k, v := range m.Pred {
			c.Pred[k] = v
		}
	}
	return c
}

// Find collects up to opts.Limit matches (all if 0), in ForEach's
// enumeration order.
func Find(q *sparql.Graph, g *rdf.Snapshot, opts Options) []Match {
	var out []Match
	ForEach(q, g, opts, func(m *Match) bool {
		out = append(out, m.clone())
		return true
	})
	return out
}

// FindBatches enumerates matches in batches of up to size matches each,
// invoking fn as soon as a batch fills (the last batch may be smaller).
// The batch slice is reused between calls; copy what you keep — the
// Matches themselves are deep copies and safe to retain. fn returning
// false stops the enumeration early. It powers streaming subquery
// evaluation: sites ship bindings to the control-site join as they are
// found instead of materializing the full result first. The batch
// sequence is Find's output cut into size-row pieces, so it is
// reproducible across runs — what lets a torn site stream resume from
// its last acknowledged batch.
func FindBatches(q *sparql.Graph, g *rdf.Snapshot, opts Options, size int, fn func([]Match) bool) {
	if size <= 0 {
		size = 256
	}
	if len(q.Edges) == 0 {
		return
	}
	batch := make([]Match, 0, size)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		ok := fn(batch)
		batch = batch[:0]
		return ok
	}
	ForEach(q, g, opts, func(m *Match) bool {
		batch = append(batch, m.clone())
		if len(batch) == size {
			return flush()
		}
		return true
	})
	flush()
}

// Count returns the number of matches, stopping at opts.Limit if set.
func Count(q *sparql.Graph, g *rdf.Snapshot, opts Options) int {
	n := 0
	ForEach(q, g, opts, func(*Match) bool {
		n++
		return true
	})
	return n
}

// MatchedGraph returns the subgraph of g induced by all matches of q: the
// union of matched triples (Definition 10's vertical fragment content),
// inserted in enumeration order.
func MatchedGraph(q *sparql.Graph, g *rdf.Snapshot, opts Options) *rdf.Graph {
	sub := rdf.NewGraph(g.Dict())
	ForEach(q, g, opts, func(m *Match) bool {
		for _, t := range m.Triples {
			sub.Add(t)
		}
		return true
	})
	return sub
}

type searcher struct {
	q     *sparql.Graph
	g     *rdf.Snapshot
	opts  Options
	order []int
	m     Match
	bound []bool
	fn    func(*Match) bool
	found int
	done  bool
}

// edgeOrder sorts query edges so that (a) the search stays connected and
// (b) the most selective edge (fewest candidate triples) comes first.
// Constant-anchored edges are costed by the exact degree of the constant
// vertex — restricted to the edge's predicate when that is constant too
// (an O(log deg) lookup on a frozen graph) — instead of a flat guess.
func edgeOrder(q *sparql.Graph, g *rdf.Snapshot) []int {
	n := len(q.Edges)
	selectivity := make([]int, n)
	for i, e := range q.Edges {
		from, to := q.Verts[e.From], q.Verts[e.To]
		switch {
		case !from.IsVar() && !to.IsVar():
			selectivity[i] = 0 // membership check: cheapest possible
		case !from.IsVar():
			if e.IsPredVar() {
				selectivity[i] = g.OutDegree(from.Term) + 1
			} else {
				selectivity[i] = g.OutDegreeP(from.Term, e.Pred) + 1
			}
		case !to.IsVar():
			if e.IsPredVar() {
				selectivity[i] = g.InDegree(to.Term) + 1
			} else {
				selectivity[i] = g.InDegreeP(to.Term, e.Pred) + 1
			}
		case e.IsPredVar():
			selectivity[i] = g.NumTriples() + 1
		default:
			selectivity[i] = g.PredicateCount(e.Pred) + 1
		}
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	covered := make(map[int]bool)
	for len(order) < n {
		best := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			e := q.Edges[i]
			connected := len(order) == 0 || covered[e.From] || covered[e.To]
			if !connected {
				continue
			}
			if best == -1 || selectivity[i] < selectivity[best] {
				best = i
			}
		}
		if best == -1 { // disconnected query: start cheapest remaining
			for i := 0; i < n; i++ {
				if !used[i] && (best == -1 || selectivity[i] < selectivity[best]) {
					best = i
				}
			}
		}
		used[best] = true
		order = append(order, best)
		covered[q.Edges[best].From] = true
		covered[q.Edges[best].To] = true
	}
	return order
}

func (s *searcher) search(depth int) {
	if s.done {
		return
	}
	if depth == len(s.order) {
		s.found++
		if !s.fn(&s.m) {
			s.done = true
		}
		if s.opts.Limit > 0 && s.found >= s.opts.Limit {
			s.done = true
		}
		return
	}
	ei := s.order[depth]
	e := s.q.Edges[ei]
	var cur candCursor
	s.initCursor(&cur, e)
	var t rdf.Triple
	// The candidate-expansion body stays inline: factoring it into a
	// call costs ~2x on candidate-scan microbenchmarks.
	for cur.next(&t) {
		if s.done {
			return
		}
		if !s.predOK(e, t.P) {
			continue
		}
		undoS, ok := s.bind(e.From, t.S)
		if !ok {
			continue
		}
		undoO, ok := s.bind(e.To, t.O)
		if !ok {
			if undoS {
				s.unbind(e.From)
			}
			continue
		}
		undoP := s.bindPred(e, t.P)
		s.m.Triples[ei] = t
		s.search(depth + 1)
		if undoP {
			delete(s.m.Pred, e.PredVar)
		}
		if undoO {
			s.unbind(e.To)
		}
		if undoS {
			s.unbind(e.From)
		}
	}
}

// candCursor enumerates the candidate data triples of one query edge
// without materializing them: it merge-walks up to three zero-copy index
// runs (a CSR run plus its insert and tombstone delta runs, the
// per-predicate triple arena plus its deltas, or the full triple list)
// and synthesizes each Triple into caller-provided storage. On a frozen
// graph the runs are sorted, and the merge reproduces exactly the
// enumeration order a freshly rebuilt CSR would give — the property the
// differential harness pins. The tombstone run is nil on insert-only
// snapshots, leaving the original two-way merge; with tombstones the
// cursor walks key groups and resolves latest-op-wins visibility
// inline. The cursor itself lives on the searcher's stack — candidate
// enumeration performs zero heap allocations, with or without a delta.
type candCursor struct {
	mode  uint8             // one of curHalf, curTris, curSingle, curDone
	half  []rdf.HalfEdge    // curHalf: base adjacency run to walk
	dhalf []rdf.DeltaHalf   // curHalf: insert delta run (nil without delta)
	thalf []rdf.DeltaHalf   // curHalf: tombstone run (nil without visible deletes)
	tris  []rdf.Triple      // curTris: base triple run to walk
	dtris []rdf.DeltaTriple // curTris: insert delta run (nil without delta)
	ttris []rdf.DeltaTriple // curTris: tombstone run (nil without visible deletes)
	one   rdf.Triple        // curSingle: the only candidate
	i     int               // position in the base run
	j     int               // position in the insert delta run
	k     int               // position in the tombstone run
	bound uint32            // snapshot visibility bound: delta entries with Seq >= bound are skipped
	fixed rdf.ID            // curHalf: the bound endpoint's data vertex
	other rdf.ID            // curHalf: required far endpoint; NoID = unconstrained
	needP rdf.ID            // curHalf: required predicate; NoID = already filtered
	out   bool              // curHalf: fixed endpoint is the subject
}

const (
	curHalf = iota
	curTris
	curSingle
	curDone
)

// initCursor picks the cheapest index to drive the scan for edge e given
// the current bindings, threading the edge's constant predicate into the
// bound-endpoint cases so a frozen graph serves a contiguous run. The
// two-run (base + delta overlay) accessors keep this allocation-free even
// on graphs carrying live updates; the delta runs are nil whenever the
// graph has no delta, leaving the original single-run walk.
func (s *searcher) initCursor(c *candCursor, e sparql.Edge) {
	fromBound := s.bound[e.From]
	toBound := s.bound[e.To]
	c.i, c.j, c.k = 0, 0, 0
	c.dhalf, c.thalf, c.dtris, c.ttris = nil, nil, nil, nil
	c.bound = s.g.Bound()
	c.other = rdf.NoID
	c.needP = rdf.NoID
	switch {
	case fromBound && toBound && !e.IsPredVar():
		// Fully-ground edge: a set membership test.
		t := rdf.Triple{S: s.m.Vertex[e.From], P: e.Pred, O: s.m.Vertex[e.To]}
		if s.g.Has(t) {
			c.mode = curSingle
			c.one = t
		} else {
			c.mode = curDone
		}
	case fromBound:
		sub := s.m.Vertex[e.From]
		c.mode = curHalf
		c.out = true
		c.fixed = sub
		if toBound {
			c.other = s.m.Vertex[e.To]
		}
		if e.IsPredVar() {
			c.half, c.dhalf, c.thalf = s.g.OutEdges2(sub)
		} else {
			base, ins, tomb, exact := s.g.OutRun2(sub, e.Pred)
			c.half, c.dhalf, c.thalf = base, ins, tomb
			if !exact {
				c.needP = e.Pred
			}
		}
	case toBound:
		obj := s.m.Vertex[e.To]
		c.mode = curHalf
		c.out = false
		c.fixed = obj
		if e.IsPredVar() {
			c.half, c.dhalf, c.thalf = s.g.InEdges2(obj)
		} else {
			base, ins, tomb, exact := s.g.InRun2(obj, e.Pred)
			c.half, c.dhalf, c.thalf = base, ins, tomb
			if !exact {
				c.needP = e.Pred
			}
		}
	case !e.IsPredVar():
		c.mode = curTris
		c.tris, c.dtris, c.ttris = s.g.ByPredicate2(e.Pred)
	default:
		// Full scan: the snapshot's triple list already folds the delta
		// in — inserts as its newest suffix, deletes materialized away —
		// so no side runs are needed.
		c.mode = curTris
		c.tris = s.g.Triples()
	}
}

// next advances the cursor, writing the candidate into *t. It returns
// false when the candidates are exhausted. With a delta run present it
// two-way merges the sorted base and delta runs, reproducing the
// enumeration order of a rebuilt CSR; with an empty delta (the steady
// state) the extra run costs one bounds check per candidate. Delta
// entries with Seq >= the snapshot's bound — appended by the writer
// after the snapshot was pinned — are skipped, so a pinned reader's
// enumeration never changes mid-query.
func (c *candCursor) next(t *rdf.Triple) bool {
	switch c.mode {
	case curTris:
		if len(c.ttris) != 0 {
			return c.nextTrisTomb(t)
		}
		for c.j < len(c.dtris) && c.dtris[c.j].Seq >= c.bound {
			c.j++
		}
		var tr rdf.Triple
		switch {
		case c.i < len(c.tris) && c.j < len(c.dtris):
			if rdf.CompareSO(c.dtris[c.j].T, c.tris[c.i]) < 0 {
				tr = c.dtris[c.j].T
				c.j++
			} else {
				tr = c.tris[c.i]
				c.i++
			}
		case c.i < len(c.tris):
			tr = c.tris[c.i]
			c.i++
		case c.j < len(c.dtris):
			tr = c.dtris[c.j].T
			c.j++
		default:
			return false
		}
		*t = tr
		return true
	case curSingle:
		c.mode = curDone
		*t = c.one
		return true
	case curHalf:
		if len(c.thalf) != 0 {
			return c.nextHalfTomb(t)
		}
		for {
			for c.j < len(c.dhalf) && c.dhalf[c.j].Seq >= c.bound {
				c.j++
			}
			var h rdf.HalfEdge
			switch {
			case c.i < len(c.half) && c.j < len(c.dhalf):
				if rdf.CompareHalf(c.dhalf[c.j].H, c.half[c.i]) < 0 {
					h = c.dhalf[c.j].H
					c.j++
				} else {
					h = c.half[c.i]
					c.i++
				}
			case c.i < len(c.half):
				h = c.half[c.i]
				c.i++
			case c.j < len(c.dhalf):
				h = c.dhalf[c.j].H
				c.j++
			default:
				return false
			}
			if c.needP != rdf.NoID && h.P != c.needP {
				continue
			}
			if c.other != rdf.NoID && h.Other != c.other {
				continue
			}
			if c.out {
				*t = rdf.Triple{S: c.fixed, P: h.P, O: h.Other}
			} else {
				*t = rdf.Triple{S: h.Other, P: h.P, O: c.fixed}
			}
			return true
		}
	}
	return false
}

// nextHalfTomb is the curHalf walk with a tombstone run present: a
// three-run group merge that consumes one (P, Other) key group per step
// and resolves latest-op-wins visibility before emitting. Still zero
// allocations per candidate.
func (c *candCursor) nextHalfTomb(t *rdf.Triple) bool {
	for c.i < len(c.half) || c.j < len(c.dhalf) || c.k < len(c.thalf) {
		var key rdf.HalfEdge
		have := false
		if c.i < len(c.half) {
			key, have = c.half[c.i], true
		}
		if c.j < len(c.dhalf) && (!have || rdf.CompareHalf(c.dhalf[c.j].H, key) < 0) {
			key, have = c.dhalf[c.j].H, true
		}
		if c.k < len(c.thalf) && (!have || rdf.CompareHalf(c.thalf[c.k].H, key) < 0) {
			key = c.thalf[c.k].H
		}
		basePresent := c.i < len(c.half) && c.half[c.i] == key
		if basePresent {
			c.i++
		}
		var insVis, tombVis bool
		var insSeq, tombSeq uint32
		for ; c.j < len(c.dhalf) && c.dhalf[c.j].H == key; c.j++ {
			if sq := c.dhalf[c.j].Seq; sq < c.bound && (!insVis || sq > insSeq) {
				insVis, insSeq = true, sq
			}
		}
		for ; c.k < len(c.thalf) && c.thalf[c.k].H == key; c.k++ {
			if sq := c.thalf[c.k].Seq; sq < c.bound && (!tombVis || sq > tombSeq) {
				tombVis, tombSeq = true, sq
			}
		}
		if !rdf.VisibleKey(basePresent, insVis, insSeq, tombVis, tombSeq) {
			continue
		}
		if c.needP != rdf.NoID && key.P != c.needP {
			continue
		}
		if c.other != rdf.NoID && key.Other != c.other {
			continue
		}
		if c.out {
			*t = rdf.Triple{S: c.fixed, P: key.P, O: key.Other}
		} else {
			*t = rdf.Triple{S: key.Other, P: key.P, O: c.fixed}
		}
		return true
	}
	return false
}

// nextTrisTomb is nextHalfTomb for the per-predicate triple runs.
func (c *candCursor) nextTrisTomb(t *rdf.Triple) bool {
	for c.i < len(c.tris) || c.j < len(c.dtris) || c.k < len(c.ttris) {
		var key rdf.Triple
		have := false
		if c.i < len(c.tris) {
			key, have = c.tris[c.i], true
		}
		if c.j < len(c.dtris) && (!have || rdf.CompareSO(c.dtris[c.j].T, key) < 0) {
			key, have = c.dtris[c.j].T, true
		}
		if c.k < len(c.ttris) && (!have || rdf.CompareSO(c.ttris[c.k].T, key) < 0) {
			key = c.ttris[c.k].T
		}
		basePresent := c.i < len(c.tris) && c.tris[c.i] == key
		if basePresent {
			c.i++
		}
		var insVis, tombVis bool
		var insSeq, tombSeq uint32
		for ; c.j < len(c.dtris) && c.dtris[c.j].T == key; c.j++ {
			if sq := c.dtris[c.j].Seq; sq < c.bound && (!insVis || sq > insSeq) {
				insVis, insSeq = true, sq
			}
		}
		for ; c.k < len(c.ttris) && c.ttris[c.k].T == key; c.k++ {
			if sq := c.ttris[c.k].Seq; sq < c.bound && (!tombVis || sq > tombSeq) {
				tombVis, tombSeq = true, sq
			}
		}
		if !rdf.VisibleKey(basePresent, insVis, insSeq, tombVis, tombSeq) {
			continue
		}
		*t = key
		return true
	}
	return false
}

func (s *searcher) predOK(e sparql.Edge, p rdf.ID) bool {
	if !e.IsPredVar() {
		return e.Pred == p
	}
	if cur, ok := s.m.Pred[e.PredVar]; ok {
		return cur == p
	}
	return true
}

// bind maps query vertex qv to data vertex id (homomorphism: several query
// variables may map to the same data vertex, but one variable maps to one
// vertex). It reports (undo, ok): ok=false rejects the candidate; undo
// tells the caller whether it must unbind qv after exploring the subtree.
// Flags instead of undo closures keep the inner loop allocation-free.
func (s *searcher) bind(qv int, id rdf.ID) (undo, ok bool) {
	if s.bound[qv] {
		return false, s.m.Vertex[qv] == id
	}
	if s.opts.VertexFilter != nil && !s.opts.VertexFilter(qv, id) {
		return false, false
	}
	s.bound[qv] = true
	s.m.Vertex[qv] = id
	return true, true
}

// unbind reverses a successful bind that reported undo=true.
func (s *searcher) unbind(qv int) { s.bound[qv] = false }

// bindPred records a variable-predicate binding, reporting whether the
// caller must delete it on backtrack.
func (s *searcher) bindPred(e sparql.Edge, p rdf.ID) bool {
	if !e.IsPredVar() {
		return false
	}
	if _, ok := s.m.Pred[e.PredVar]; ok {
		return false
	}
	s.m.Pred[e.PredVar] = p
	return true
}

// Bindings converts matches into a variable-name-keyed tabular form used
// by the distributed join executor.
type Bindings struct {
	Vars []string
	Rows [][]rdf.ID
}

// ToBindings projects matches onto the query's variables (vertex variables
// plus variable predicates), in sorted variable order.
func ToBindings(q *sparql.Graph, ms []Match) *Bindings {
	vars := q.Vars()
	vpos := make(map[string]int, len(vars))
	for i, v := range vars {
		vpos[v] = i
	}
	// Map each var to a vertex index (first occurrence) or pred var.
	vertOf := make(map[string]int)
	for i, v := range q.Verts {
		if v.IsVar() {
			if _, ok := vertOf[v.Var]; !ok {
				vertOf[v.Var] = i
			}
		}
	}
	b := &Bindings{Vars: vars, Rows: make([][]rdf.ID, 0, len(ms))}
	for _, m := range ms {
		row := make([]rdf.ID, len(vars))
		for _, v := range vars {
			if vi, ok := vertOf[v]; ok {
				row[vpos[v]] = m.Vertex[vi]
			} else if p, ok := m.Pred[v]; ok {
				row[vpos[v]] = p
			} else {
				row[vpos[v]] = rdf.NoID
			}
		}
		b.Rows = append(b.Rows, row)
	}
	return b
}

// Dedup removes duplicate rows in place (matches can repeat a projection).
func (b *Bindings) Dedup() {
	if len(b.Rows) <= 1 {
		return
	}
	slices.SortFunc(b.Rows, RowCompare)
	out := b.Rows[:1]
	for _, r := range b.Rows[1:] {
		if RowCompare(out[len(out)-1], r) != 0 {
			out = append(out, r)
		}
	}
	b.Rows = out
}

// RowCompare orders binding rows lexicographically. Ragged rows (width
// mismatch, e.g. tables accidentally merged across projections) compare
// by common prefix and then by width instead of panicking.
func RowCompare(a, b []rdf.ID) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
