package match

// The match half of the differential mutation/query harness: random
// interleavings of Add/Delete/Freeze/Compact and queries run against
// three copies of the same evolving graph — a delta-carrying frozen overlay, a
// map-mode oracle, and a rebuilt-from-scratch frozen graph — and the
// matcher must return byte-identical results on overlay vs rebuild (the
// merge cursor reproduces the rebuilt CSR's enumeration order exactly)
// and the same match set as the oracle.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// matchKeys projects matches to a comparable set representation.
func matchKeys(ms []Match) map[string]bool {
	seen := map[string]bool{}
	for _, m := range ms {
		key := ""
		for _, id := range m.Vertex {
			key += fmt.Sprint(id) + "|"
		}
		for _, tr := range m.Triples {
			key += tr.String()
		}
		seen[key] = true
	}
	return seen
}

func sameMatchSet(a, b []Match) bool {
	ka, kb := matchKeys(a), matchKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for k := range ka {
		if !kb[k] {
			return false
		}
	}
	return true
}

// TestDeltaOverlayMatchDifferentialProperty: after every mutation step,
// Find on the overlaid frozen graph is byte-identical to Find on a
// freshly rebuilt frozen graph, and set-equal to the map-mode oracle and
// the brute-force oracle.
func TestDeltaOverlayMatchDifferentialProperty(t *testing.T) {
	f := func(dataSeed, querySeed int64) bool {
		r := rand.New(rand.NewSource(dataSeed))
		overlay := rdf.NewGraph(nil)
		oracle := rdf.NewGraph(overlay.Dict)
		if dataSeed%3 == 0 {
			overlay.SetAutoCompact(0.0001) // compact on every delta add
		} else {
			overlay.SetAutoCompact(-1) // let the delta grow
		}
		q := randomQuery(querySeed, 3)
		const nv, np = 6, 3
		randomTriple := func() rdf.Triple {
			return rdf.Triple{
				S: rdf.ID(r.Intn(nv)),
				P: rdf.ID(nv + r.Intn(np)),
				O: rdf.ID(r.Intn(nv)),
			}
		}
		for step := 0; step < 40; step++ {
			switch op := r.Intn(10); {
			case op < 6:
				tr := randomTriple()
				overlay.Add(tr)
				oracle.Add(tr)
			case op < 8: // Delete: a live triple, or a possibly-absent one
				var tr rdf.Triple
				if live := overlay.Triples(); len(live) > 0 && r.Intn(2) == 0 {
					tr = live[r.Intn(len(live))]
				} else {
					tr = randomTriple()
				}
				overlay.Delete(tr)
				oracle.Delete(tr)
			case op < 9:
				overlay.Freeze()
			default:
				overlay.Compact()
			}
			if !overlay.Frozen() {
				continue // map mode is covered by the frozen-vs-thawed suite
			}
			rebuilt := rdf.NewGraph(overlay.Dict)
			for _, tr := range overlay.Triples() {
				rebuilt.Add(tr)
			}
			rebuilt.Freeze()

			got := Find(q, overlay.Snapshot(), Options{})
			want := Find(q, rebuilt.Snapshot(), Options{})
			if !reflect.DeepEqual(got, want) {
				t.Logf("step %d (delta=%d tombs=%d): overlay Find not byte-identical to rebuilt (%d vs %d matches)",
					step, overlay.DeltaLen(), overlay.DeltaTombstones(), len(got), len(want))
				return false
			}
			if !sameMatchSet(got, Find(q, oracle.Snapshot(), Options{})) {
				t.Logf("step %d: overlay diverged from map-mode oracle", step)
				return false
			}
			if Count(q, overlay.Snapshot(), Options{}) != bruteForceCount(q, oracle) {
				t.Logf("step %d: overlay diverged from brute-force oracle", step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// deltaHubGraph freezes a hub graph and then streams extra hub edges into
// the delta overlay (auto-compaction off, so the delta survives),
// interleaving predicates and objects so delta elements land between CSR
// run elements in (P, Other) order.
func deltaHubGraph(fanout, preds, deltaEdges int) *rdf.Graph {
	g := hubGraph(fanout, preds)
	g.Freeze()
	g.SetAutoCompact(-1)
	hub := g.Dict.MustIRI("hub")
	for i := 0; i < deltaEdges; i++ {
		o := g.Dict.MustIRI(fmt.Sprintf("d%d", i))
		p := g.Dict.MustIRI(fmt.Sprintf("p%d", i%preds))
		g.Add(rdf.Triple{S: hub, P: p, O: o})
	}
	return g
}

// tombHubGraph layers tombstones over deltaHubGraph: every 7th base hub
// edge and every 5th delta edge is deleted, plus one delete-then-reinsert
// and one never-inserted no-op, so the visible window interleaves insert
// and tombstone runs against the base CSR.
func tombHubGraph(fanout, preds, deltaEdges int) *rdf.Graph {
	g := deltaHubGraph(fanout, preds, deltaEdges)
	hub := g.Dict.MustIRI("hub")
	for i := 0; i < fanout; i += 7 {
		o := g.Dict.MustIRI(fmt.Sprintf("o%d", i))
		p := g.Dict.MustIRI(fmt.Sprintf("p%d", i%preds))
		if !g.Delete(rdf.Triple{S: hub, P: p, O: o}) {
			panic("tombHubGraph: base edge missing")
		}
	}
	for i := 0; i < deltaEdges; i += 5 {
		o := g.Dict.MustIRI(fmt.Sprintf("d%d", i))
		p := g.Dict.MustIRI(fmt.Sprintf("p%d", i%preds))
		if !g.Delete(rdf.Triple{S: hub, P: p, O: o}) {
			panic("tombHubGraph: delta edge missing")
		}
	}
	// Delete-then-reinsert: the later insert must win over the tombstone.
	re := rdf.Triple{S: hub, P: g.Dict.MustIRI("p0"), O: g.Dict.MustIRI("o0")}
	g.Delete(re)
	g.Add(re)
	// Never-inserted: a pure no-op, not a phantom the merge could trip on.
	g.Delete(rdf.Triple{S: hub, P: g.Dict.MustIRI("p0"), O: g.Dict.MustIRI("never")})
	return g
}

// TestDeltaHubOverlayByteIdenticalToRebuilt: over a hub whose runs carry
// an insert delta, Find, Count and MatchedGraph on the overlay are
// byte-identical to the same calls on a freshly rebuilt frozen graph.
func TestDeltaHubOverlayByteIdenticalToRebuilt(t *testing.T) {
	g := deltaHubGraph(2048, 8, 300)
	if g.DeltaLen() == 0 {
		t.Fatal("setup lost the delta")
	}
	checkOverlayMatchesRebuilt(t, g)
}

// TestTombstoneHubOverlayByteIdenticalToRebuilt: the same check when the
// visible window also carries interleaved tombstones, a delete-then-reinsert
// and a no-op delete; no deleted triple may leak into any match.
func TestTombstoneHubOverlayByteIdenticalToRebuilt(t *testing.T) {
	g := tombHubGraph(2048, 8, 300)
	if g.DeltaTombstones() == 0 {
		t.Fatal("setup lost the tombstones")
	}
	checkOverlayMatchesRebuilt(t, g)
}

// checkOverlayMatchesRebuilt runs hub queries on g's overlay and on a
// rebuilt frozen copy of its visible triples and requires identical Find,
// Count and MatchedGraph results, with every matched triple visible in g.
func checkOverlayMatchesRebuilt(t *testing.T, g *rdf.Graph) {
	t.Helper()
	queries := []string{
		`SELECT ?x WHERE { <hub> <p5> ?x . }`,
		`SELECT ?x ?p WHERE { <hub> ?p ?x . }`,
		`SELECT ?s ?x WHERE { ?s <p3> ?x . }`,
	}
	rebuilt := rdf.NewGraph(g.Dict)
	for _, tr := range g.Triples() {
		rebuilt.Add(tr)
	}
	rebuilt.Freeze()
	for _, qs := range queries {
		q := sparql.MustParse(g.Dict, qs)
		got := Find(q, g.Snapshot(), Options{})
		want := Find(q, rebuilt.Snapshot(), Options{})
		if len(want) == 0 {
			t.Fatalf("%s: rebuilt graph matched nothing", qs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: overlay Find diverged from rebuilt (%d vs %d matches)", qs, len(got), len(want))
		}
		if c := Count(q, g.Snapshot(), Options{}); c != len(want) {
			t.Fatalf("%s: overlay Count = %d, want %d", qs, c, len(want))
		}
		mg := MatchedGraph(q, g.Snapshot(), Options{})
		sg := MatchedGraph(q, rebuilt.Snapshot(), Options{})
		if !reflect.DeepEqual(mg.Triples(), sg.Triples()) {
			t.Fatalf("%s: overlay MatchedGraph insertion order diverged", qs)
		}
		sn := g.Snapshot()
		for _, m := range got {
			for _, tr := range m.Triples {
				if !sn.Has(tr) {
					t.Fatalf("%s: match carries deleted triple %v", qs, tr)
				}
			}
		}
		sn.Close()
	}
}

// TestDeltaCursorZeroAllocs: draining the merge cursor over a
// delta-carrying frozen graph stays allocation-free per candidate — the
// AllocsPerRun guard the live-update path must keep.
func TestDeltaCursorZeroAllocs(t *testing.T) {
	g := deltaHubGraph(2048, 8, 256)
	hubOut := 2048/8 + 256/8
	cases := []struct {
		name  string
		query string
		want  int
	}{
		{"bound-subject-const-pred", `SELECT ?x WHERE { <hub> <p5> ?x . }`, hubOut},
		{"bound-subject-var-pred", `SELECT ?x ?p WHERE { <hub> ?p ?x . }`, 2048 + 256},
		{"unbound-const-pred", `SELECT ?s ?x WHERE { ?s <p5> ?x . }`, hubOut},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := sparql.MustParse(g.Dict, tc.query)
			s := newTestSearcher(q, g)
			for i, v := range q.Verts {
				if !v.IsVar() {
					s.bound[i] = true
					s.m.Vertex[i] = v.Term
				}
			}
			e := q.Edges[0]
			allocs := testing.AllocsPerRun(100, func() {
				var cur candCursor
				s.initCursor(&cur, e)
				var tr rdf.Triple
				n := 0
				for cur.next(&tr) {
					n++
				}
				if n != tc.want {
					t.Fatalf("cursor yielded %d candidates, want %d", n, tc.want)
				}
			})
			if allocs != 0 {
				t.Errorf("delta-merge candidate enumeration allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

// TestEmptyDeltaFastPathUntouched pins the steady state: a frozen graph
// with an empty delta hands the cursor nil delta runs (the merge loop
// degenerates to the original single-run walk) and candidate enumeration
// stays zero-alloc.
func TestEmptyDeltaFastPathUntouched(t *testing.T) {
	g := hubGraph(2048, 8)
	g.Freeze()
	if !g.Frozen() || g.DeltaLen() != 0 {
		t.Fatal("setup: expected frozen graph with empty delta")
	}
	sn := g.Snapshot()
	defer sn.Close()
	hub := sn.Vertices()[0]
	base, delta, tomb := sn.OutEdges2(hub)
	if delta != nil || tomb != nil {
		t.Fatalf("OutEdges2 returned delta runs (%d ins, %d tomb) on a delta-free graph", len(delta), len(tomb))
	}
	if len(base) == 0 {
		t.Fatal("OutEdges2 returned no base run")
	}
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { <hub> <p5> ?x . }`)
	s := newTestSearcher(q, g)
	for i, v := range q.Verts {
		if !v.IsVar() {
			s.bound[i] = true
			s.m.Vertex[i] = v.Term
		}
	}
	e := q.Edges[0]
	allocs := testing.AllocsPerRun(100, func() {
		var cur candCursor
		s.initCursor(&cur, e)
		var tr rdf.Triple
		for cur.next(&tr) {
		}
		if cur.dhalf != nil || cur.j != 0 {
			t.Fatal("cursor engaged the delta run on a delta-free graph")
		}
	})
	if allocs != 0 {
		t.Errorf("empty-delta fast path allocates %.1f per run, want 0", allocs)
	}
}

// TestTombstoneCursorZeroAllocs: the three-run merge (base vs insert vs
// tombstone) filters deleted candidates without allocating — deletes must
// not push the matcher's candidate enumeration onto the heap.
func TestTombstoneCursorZeroAllocs(t *testing.T) {
	g := tombHubGraph(2048, 8, 256)
	if g.DeltaTombstones() == 0 {
		t.Fatal("setup lost the tombstones")
	}
	sn := g.Snapshot()
	hub := g.Dict.MustIRI("hub")
	p5 := g.Dict.MustIRI("p5")
	// Expected candidate counts come from the degree accessors, which the
	// rdf differential suite pins against the map-mode oracle.
	wantP5 := sn.OutDegreeP(hub, p5)
	wantAll := sn.OutDegree(hub)
	sn.Close()
	cases := []struct {
		name  string
		query string
		want  int
	}{
		{"bound-subject-const-pred", `SELECT ?x WHERE { <hub> <p5> ?x . }`, wantP5},
		{"bound-subject-var-pred", `SELECT ?x ?p WHERE { <hub> ?p ?x . }`, wantAll},
		{"unbound-const-pred", `SELECT ?s ?x WHERE { ?s <p5> ?x . }`, wantP5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := sparql.MustParse(g.Dict, tc.query)
			s := newTestSearcher(q, g)
			for i, v := range q.Verts {
				if !v.IsVar() {
					s.bound[i] = true
					s.m.Vertex[i] = v.Term
				}
			}
			e := q.Edges[0]
			allocs := testing.AllocsPerRun(100, func() {
				var cur candCursor
				s.initCursor(&cur, e)
				var tr rdf.Triple
				n := 0
				for cur.next(&tr) {
					n++
				}
				if n != tc.want {
					t.Fatalf("cursor yielded %d candidates, want %d", n, tc.want)
				}
			})
			if allocs != 0 {
				t.Errorf("tombstone-merge candidate enumeration allocates %.1f per run, want 0", allocs)
			}
		})
	}
}
