package main

// Corpus and request generation. Everything here is a pure function of
// the workload, the size and the seed; the program under test only ever
// receives the N-Triples bytes and query texts produced here.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"

	"rdffrag/internal/bench"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/watdiv"
	"rdffrag/internal/workload"
)

// size scales a workload's inputs. full is the default for benchmark
// runs; tiny keeps the self-test fast.
type size struct {
	dbpediaTriples int
	watdivTriples  int
	logQueries     int
	requestPool    int
}

var sizes = map[string]size{
	"full": {dbpediaTriples: 100_000, watdivTriples: 30_000, logQueries: 2000, requestPool: 4096},
	"tiny": {dbpediaTriples: 4000, watdivTriples: 3000, logQueries: 200, requestPool: 256},
}

// request is one query text with its oracle answer size.
type request struct {
	template string
	text     string
	want     int
}

// corpus is a workload's generated input.
type corpus struct {
	nt       []byte
	triples  int
	log      []string
	requests []request
}

// pointTemplates are the DBpedia log's shapes that carry a constant,
// with the log's relative weights (internal/workload); each request
// draws fresh constants, so the plan cache keys differ.
var pointTemplates = []struct {
	name, text string
	slot       string // the placeholder in text
	weight     int
}{
	{"topic-names", `SELECT ?x ?n WHERE { ?x <foaf:name> ?n . ?x <dbo:mainInterest> %topic% . }`, "%topic%", 84},
	{"influenced-by", `SELECT ?x WHERE { ?x <foaf:name> ?n . ?x <dbo:influencedBy> %person% . }`, "%person%", 54},
	{"country-places", `SELECT ?p WHERE { ?p <dbo:country> %country% . ?p <dbo:postalCode> ?z . }`, "%country%", 36},
	{"died-at", `SELECT ?x WHERE { ?x <foaf:name> ?n . ?x <dbo:placeOfDeath> %place% . }`, "%place%", 27},
	{"influenced-topic", `SELECT ?x ?y WHERE { ?x <dbo:influencedBy> ?y . ?y <dbo:mainInterest> %topic% . }`, "%topic%", 21},
	{"born-at", `SELECT ?x WHERE { ?x <dbo:birthPlace> %place% . }`, "%place%", 15},
	{"uses-template", `SELECT ?x WHERE { ?x <dbo:wikiPageUsesTemplate> %template% . }`, "%template%", 1},
}

// joinTemplates are the WatDiv templates without constants and with at
// least three joins: their shapes repeat, so the plan cache hits.
var joinTemplates = []string{"L5", "F1", "F3", "F5", "C1", "C2"}

// renderLog turns parsed log queries back into SPARQL text.
func renderLog(log []*sparql.Graph, d *rdf.Dict) []string {
	out := make([]string, len(log))
	for i, q := range log {
		proj := "*"
		if len(q.Select) > 0 {
			proj = "?" + strings.Join(q.Select, " ?")
		}
		out[i] = fmt.Sprintf("SELECT %s WHERE { %s . }", proj, q.StringWithDict(d))
	}
	return out
}

func ntriples(g *rdf.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(g, &buf); err != nil {
		return nil, fmt.Errorf("serialize corpus: %w", err)
	}
	return buf.Bytes(), nil
}

// oracle fills each request's expected row count by evaluating it
// centrally on the unfragmented generator graph. Distinct texts are
// evaluated once.
func oracle(reqs []request, g *rdf.Graph) error {
	parser := sparql.NewParser(g.Dict)
	memo := make(map[string]int)
	for i := range reqs {
		n, ok := memo[reqs[i].text]
		if !ok {
			q, err := parser.Parse(reqs[i].text)
			if err != nil {
				return fmt.Errorf("oracle: %q: %w", reqs[i].text, err)
			}
			n = bench.CentralAnswerSize(q, g)
			memo[reqs[i].text] = n
		}
		reqs[i].want = n
	}
	return nil
}

// genDBpedia builds the corpus for point and write: a DBpedia-like graph,
// its query log, and a pool of constant-carrying requests.
func genDBpedia(sz size, seed uint64) (*corpus, error) {
	db, err := workload.GenerateDBpedia(workload.DBpediaOptions{
		Triples: sz.dbpediaTriples, Queries: sz.logQueries, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	nt, err := ntriples(db.Graph)
	if err != nil {
		return nil, err
	}
	// Every template gets its exact share of the pool by weight, and the
	// constants of each template cycle through a seeded permutation, so
	// the request mix, and with it the latency distribution, does not
	// depend on sampling luck; the seed still picks the constants and
	// the order.
	rng := rand.New(rand.NewPCG(seed, 0x706f696e74))
	numbered := func(format string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf(format, i)
		}
		return out
	}
	constants := map[string][]string{
		"%topic%":    db.Topics,
		"%person%":   db.Persons,
		"%place%":    db.Places,
		"%country%":  numbered("dbr:Country%d", 12),
		"%template%": numbered("dbt:Template%d", 7),
	}
	total := 0
	for _, t := range pointTemplates {
		total += t.weight
	}
	reqs := make([]request, 0, sz.requestPool)
	for k, t := range pointTemplates {
		// Largest-remainder shares: the first k templates end at
		// pool*cumulative weight/total, rounded down.
		cum := 0
		for _, u := range pointTemplates[:k+1] {
			cum += u.weight
		}
		n := sz.requestPool*cum/total - len(reqs)
		pool := constants[t.slot]
		var order []int
		for i := 0; i < n; i++ {
			if i%len(pool) == 0 {
				order = rng.Perm(len(pool))
			}
			text := strings.Replace(t.text, t.slot, "<"+pool[order[i%len(pool)]]+">", 1)
			reqs = append(reqs, request{template: t.name, text: text})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	if err := oracle(reqs, db.Graph); err != nil {
		return nil, err
	}
	return &corpus{
		nt:       nt,
		triples:  db.Graph.NumTriples(),
		log:      renderLog(db.Log, db.Graph.Dict),
		requests: reqs,
	}, nil
}

// genWatDiv builds the join corpus: a WatDiv-like graph, the 20-template
// log, and the constant-free join templates in blocks that each hold
// every template once, in a seeded order, so that any stretch of the run
// sees the same mix.
func genWatDiv(sz size, seed uint64) (*corpus, error) {
	ds := watdiv.Generate(watdiv.Options{Triples: sz.watdivTriples, Seed: seed})
	log, err := ds.GenerateWorkload(sz.logQueries, seed+1)
	if err != nil {
		return nil, err
	}
	nt, err := ntriples(ds.Graph)
	if err != nil {
		return nil, err
	}
	texts := make(map[string]string)
	for _, t := range watdiv.Templates() {
		texts[t.Name] = t.Text
	}
	rng := rand.New(rand.NewPCG(seed, 0x6a6f696e))
	reqs := make([]request, 0, sz.requestPool)
	for len(reqs) < sz.requestPool {
		for _, k := range rng.Perm(len(joinTemplates)) {
			name := joinTemplates[k]
			reqs = append(reqs, request{template: name, text: texts[name]})
		}
	}
	if err := oracle(reqs, ds.Graph); err != nil {
		return nil, err
	}
	return &corpus{
		nt:       nt,
		triples:  ds.Graph.NumTriples(),
		log:      renderLog(log, ds.Graph.Dict),
		requests: reqs,
	}, nil
}
