package transport

// Wire format of the site RPC. A request is one JSON document; the
// response is a stream of newline-delimited JSON frames
// (application/x-ndjson): a header frame carrying the data epoch, zero
// or more batch frames carrying binding rows, and a terminal done frame.
// The terminal frame is what makes torn streams detectable: EOF before
// it means the stream was cut (network fault, site death) and the
// delivered prefix is incomplete — the client retries and resumes
// instead of silently accepting a truncated result.
//
// Queries travel structurally (vertices and edges with constants as
// N-Triples term keys), not as SPARQL text: Term.Key/TermFromKey
// round-trip exactly, so the encoding has no parser quirks to survive.
// Binding rows travel as raw dictionary IDs. That requires the client
// and server dictionaries to agree, which they do by construction: a
// fragment-host process builds its deployment from the same data and
// workload files with the same deterministic pipeline as the control
// site, and data-term IDs are assigned in file order. Terms a query
// interns ad hoc (constants absent from the data) never appear in
// binding rows — rows only reference matched data vertices — so
// post-load interning divergence is harmless.

import (
	"fmt"

	"rdffrag/internal/cluster"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// wireVert is one query vertex: a variable or a constant term key.
type wireVert struct {
	Var  string `json:"var,omitempty"`
	Term string `json:"term,omitempty"`
}

// wireEdge is one query edge between vertex indices.
type wireEdge struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	Pred    string `json:"pred,omitempty"`
	PredVar string `json:"predVar,omitempty"`
}

// wireQuery is the structural encoding of a basic graph pattern.
type wireQuery struct {
	Verts []wireVert `json:"verts"`
	Edges []wireEdge `json:"edges"`
}

// maxEvalBatch bounds the rows per streamed batch an /eval request may
// ask for. The server allocates the batch up front, so an unchecked
// client value could exhaust the site's memory before any work is done.
const maxEvalBatch = 1 << 16

// evalWire is the /eval request body. Retired fields from older clients
// (such as "parallelism") are ignored on decode.
type evalWire struct {
	Site  int       `json:"site"`
	Frags []int     `json:"frags"`
	Query wireQuery `json:"query"`
	// Batch is the rows per streamed batch: 0 or less means the default,
	// and values above maxEvalBatch are rejected with 400.
	Batch int `json:"batch,omitempty"`
	// Resume asks the server to skip the first Resume batches of the
	// deterministic batch sequence (they were already delivered and
	// acknowledged before a previous attempt's stream tore). Only valid
	// together with Epoch.
	Resume int `json:"resume,omitempty"`
	// Epoch is the data fingerprint the resumed prefix was produced
	// under; the server ignores Resume (and streams from scratch) when
	// its current epoch differs.
	Epoch uint64 `json:"epoch,omitempty"`
	// DictLen/DictFP fingerprint the client dictionary's first DictLen
	// terms (rdf.Dict.Fingerprint). Binding rows travel as raw IDs, so a
	// client and server whose data dictionaries diverged would silently
	// decode each other's rows to the wrong terms; both sides verify the
	// shared prefix min(client, server length) instead — full lengths
	// legitimately differ, because each side interns ad-hoc query
	// constants the other never sees. Zero means an old client; the
	// check is skipped.
	DictLen int    `json:"dictLen,omitempty"`
	DictFP  uint64 `json:"dictFp,omitempty"`
}

// frame is one NDJSON response frame, discriminated by K: "hdr" opens
// the stream, "b" carries a batch, "done" closes it, "err" reports a
// server-side failure (Retry says whether it is worth retrying).
type frame struct {
	K       string     `json:"k"`
	Epoch   uint64     `json:"epoch,omitempty"`   // hdr
	Skip    int        `json:"skip,omitempty"`    // hdr: batches skipped for resume
	DictLen int        `json:"dictLen,omitempty"` // hdr: shared dictionary prefix length
	DictFP  uint64     `json:"dictFp,omitempty"`  // hdr: server fingerprint of that prefix
	Seq     int        `json:"seq"`               // b
	Vars    []string   `json:"vars,omitempty"`    // b
	Rows    [][]rdf.ID `json:"rows,omitempty"`    // b
	Count   int        `json:"count,omitempty"`   // done: total batches in sequence
	Msg     string     `json:"msg,omitempty"`     // err
	Retry   bool       `json:"retry,omitempty"`   // err
}

// encodeQuery flattens a parsed query graph for the wire, decoding
// constant IDs to stable term keys through the control site's dict.
func encodeQuery(q *sparql.Graph, d *rdf.Dict) wireQuery {
	wq := wireQuery{Verts: make([]wireVert, len(q.Verts)), Edges: make([]wireEdge, len(q.Edges))}
	for i, v := range q.Verts {
		if v.IsVar() {
			wq.Verts[i] = wireVert{Var: v.Var}
		} else {
			wq.Verts[i] = wireVert{Term: d.Decode(v.Term).Key()}
		}
	}
	for i, e := range q.Edges {
		we := wireEdge{From: e.From, To: e.To}
		if e.IsPredVar() {
			we.PredVar = e.PredVar
		} else {
			we.Pred = d.Decode(e.Pred).Key()
		}
		wq.Edges[i] = we
	}
	return wq
}

// decodeQuery rebuilds a query graph from the wire, interning constant
// term keys through the site's dict (content-addressed; concurrent-safe).
func decodeQuery(wq wireQuery, d *rdf.Dict) (*sparql.Graph, error) {
	q := sparql.NewGraph()
	for i, wv := range wq.Verts {
		switch {
		case wv.Var != "":
			q.AddVertex(sparql.Vertex{Var: wv.Var})
		case wv.Term != "":
			t, err := rdf.TermFromKey(wv.Term)
			if err != nil {
				return nil, fmt.Errorf("transport: vertex %d: %w", i, err)
			}
			q.AddVertex(sparql.Vertex{Term: d.Encode(t)})
		default:
			return nil, fmt.Errorf("transport: vertex %d is neither var nor term", i)
		}
	}
	for i, we := range wq.Edges {
		if we.From < 0 || we.From >= len(q.Verts) || we.To < 0 || we.To >= len(q.Verts) {
			return nil, fmt.Errorf("transport: edge %d endpoints out of range", i)
		}
		e := sparql.Edge{From: we.From, To: we.To}
		switch {
		case we.PredVar != "":
			e.PredVar = we.PredVar
		case we.Pred != "":
			t, err := rdf.TermFromKey(we.Pred)
			if err != nil {
				return nil, fmt.Errorf("transport: edge %d: %w", i, err)
			}
			e.Pred = d.Encode(t)
		default:
			return nil, fmt.Errorf("transport: edge %d has neither pred nor predVar", i)
		}
		q.AddEdge(e)
	}
	return q, nil
}

// encodeRequest builds the wire form of an EvalRequest. Vertex filters
// are function values and cannot travel; the engine's streaming path
// never sets one, so this is a programming-error guard, not a runtime
// path.
func encodeRequest(req cluster.EvalRequest, d *rdf.Dict, batchSize int) (*evalWire, error) {
	if req.Filter != nil {
		return nil, fmt.Errorf("transport: vertex filters cannot be serialized to remote sites")
	}
	// Stamp the client dictionary state. Prefix fingerprints are
	// immutable (the dictionary is append-only), so the stamp stays
	// valid across every retry and hedge of this request.
	dictLen := d.Len()
	return &evalWire{
		Site:    req.SiteID,
		Frags:   append([]int(nil), req.FragIDs...),
		Query:   encodeQuery(req.Query, d),
		Batch:   min(batchSize, maxEvalBatch),
		DictLen: dictLen,
		DictFP:  d.Fingerprint(dictLen),
	}, nil
}
