package match

import (
	"fmt"
	"testing"

	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
)

// hubGraph builds a graph dominated by one high-degree vertex: the hub has
// fanout outgoing edges spread uniformly over preds properties. This is
// the shape that punishes full-adjacency candidate scans — a bound subject
// with a constant predicate should only ever see fanout/preds edges.
func hubGraph(fanout, preds int) *rdf.Graph {
	g := rdf.NewGraph(nil)
	hub := g.Dict.MustIRI("hub")
	ps := make([]rdf.ID, preds)
	for i := range ps {
		ps[i] = g.Dict.MustIRI(fmt.Sprintf("p%d", i))
	}
	for i := 0; i < fanout; i++ {
		o := g.Dict.MustIRI(fmt.Sprintf("o%d", i))
		g.Add(rdf.Triple{S: hub, P: ps[i%preds], O: o})
	}
	return g
}

// BenchmarkCandidateScan measures the matcher's candidate enumeration for
// a constant-subject, constant-predicate edge on a high-fanout vertex:
// the inner loop of every bound-endpoint expansion.
func BenchmarkCandidateScan(b *testing.B) {
	g := hubGraph(4096, 16)
	g.Freeze() // measure the CSR run path, as production freeze sites do
	q := sparql.MustParse(g.Dict, `SELECT ?x WHERE { <hub> <p5> ?x . }`)
	want := 4096 / 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := Count(q, g.Snapshot(), Options{}); n != want {
			b.Fatalf("count = %d, want %d", n, want)
		}
	}
}

// BenchmarkMatchWatDiv runs a fixed slice of WatDiv template queries over
// a WatDiv-shaped graph — the end-to-end matcher cost a site pays per
// subquery evaluation.
func BenchmarkMatchWatDiv(b *testing.B) {
	wd := watdiv.Generate(watdiv.Options{Triples: 20000, Seed: 20160315})
	log, err := wd.GenerateWorkload(40, 20160316)
	if err != nil {
		b.Fatal(err)
	}
	g := wd.Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, q := range log {
			total += Count(q, g.Snapshot(), Options{})
		}
		if total == 0 {
			b.Fatal("workload matched nothing")
		}
	}
}
