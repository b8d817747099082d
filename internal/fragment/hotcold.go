package fragment

import (
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// HotCold is the result of dividing an RDF graph by property access
// frequency (Definitions 5–6).
type HotCold struct {
	Hot  *rdf.Graph
	Cold *rdf.Graph
	// FreqProps holds the frequent properties (appearing in >= Theta
	// workload queries).
	FreqProps map[rdf.ID]bool
	// PropQueries counts, per property, the number of workload queries
	// mentioning it.
	PropQueries map[rdf.ID]int
}

// SplitHotCold divides g into hot and cold graphs: an edge is hot iff its
// property occurs in at least theta workload queries. Variable-predicate
// query edges do not contribute to any property's count.
func SplitHotCold(g *rdf.Graph, workload []*sparql.Graph, theta int) *HotCold {
	if theta < 1 {
		theta = 1
	}
	counts := make(map[rdf.ID]int)
	for _, q := range workload {
		seen := make(map[rdf.ID]bool)
		for _, e := range q.Edges {
			if e.IsPredVar() || seen[e.Pred] {
				continue
			}
			seen[e.Pred] = true
			counts[e.Pred]++
		}
	}
	freq := make(map[rdf.ID]bool)
	for p, c := range counts {
		if c >= theta {
			freq[p] = true
		}
	}
	hc := &HotCold{
		Hot:         rdf.NewGraph(g.Dict),
		Cold:        rdf.NewGraph(g.Dict),
		FreqProps:   freq,
		PropQueries: counts,
	}
	for _, t := range g.Triples() {
		if freq[t.P] {
			hc.Hot.Add(t)
		} else {
			hc.Cold.Add(t)
		}
	}
	// Freeze both halves: pattern selection and fragment construction
	// match against Hot heavily, and Cold is served to sites as-is.
	hc.Hot.Freeze()
	hc.Cold.Freeze()
	return hc
}
