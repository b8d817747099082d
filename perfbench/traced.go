package main

// The traced pass: build, query and write traces over the workload's
// inputs, each call into a layer's exported function wrapped in a span.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rdffrag"
	"rdffrag/internal/allocation"
	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/dict"
	"rdffrag/internal/exec"
	"rdffrag/internal/fap"
	"rdffrag/internal/fragment"
	"rdffrag/internal/match"
	"rdffrag/internal/mining"
	"rdffrag/internal/plan"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
	"rdffrag/internal/transport"
)

// The rdffrag.Config defaults that deployConfig resolves to. The traced
// build must make the same deployment as the served one; its row counts
// are checked against the same oracle, which catches any drift.
const (
	minSupport     = 0.01
	storageFactor  = 3.0
	workersPerSite = 4
)

// tracedBuild is a deployment assembled from the internal packages, the
// way DB.DeployParsed assembles one.
type tracedBuild struct {
	g       *rdf.Graph
	fr      *fragment.Fragmentation
	dec     *decompose.Decomposer
	cl      *cluster.Cluster
	eng     *exec.Engine
	frags   map[int]*fragment.Fragment
	clients map[int]*transport.SiteClient
	site    *http.Server
}

func (b *tracedBuild) close() { b.site.Close() }

func atLeast1(x float64) int { return max(1, int(x)) }

// traceBuild times each offline-pipeline call. With remote set the
// engine reaches every site over transport, as the served join
// deployment does; a site listener is started either way so that the
// query trace can time transport evals.
func traceBuild(tr *tracer, c *corpus, remote bool) (*tracedBuild, error) {
	const req = -1
	root := tr.begin("build", -1, req)
	defer tr.end(root)
	b := &tracedBuild{g: rdf.NewGraph(nil), frags: make(map[int]*fragment.Fragment)}
	var err error
	tr.do("rdf.load", root, req, func() {
		if _, err = rdf.ReadNTriples(b.g, bytes.NewReader(c.nt)); err == nil {
			b.g.Freeze()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("traced load: %w", err)
	}
	wl := make([]*sparql.Graph, len(c.log))
	parser := sparql.NewParser(b.g.Dict)
	tr.do("sparql.parse_log", root, req, func() {
		for i, text := range c.log {
			if wl[i], err = parser.Parse(text); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("traced log parse: %w", err)
	}
	minSup := atLeast1(minSupport * float64(len(wl)))
	var hc *fragment.HotCold
	tr.do("fragment.hotcold", root, req, func() { hc = fragment.SplitHotCold(b.g, wl, minSup) })
	var patterns []*mining.Pattern
	tr.do("mining.mine", root, req, func() { patterns = (&mining.Miner{MinSup: minSup}).Mine(wl) })
	var sel *fap.Selection
	tr.do("fap.select", root, req, func() {
		sel, err = (&fap.Selector{StorageCapacity: int(storageFactor * float64(hc.Hot.NumTriples()))}).Select(patterns, wl, hc.Hot)
	})
	if err != nil {
		return nil, fmt.Errorf("traced select: %w", err)
	}
	tr.do("fragment.build", root, req, func() { b.fr = fragment.Vertical(sel, hc) })
	var alloc *allocation.Allocation
	tr.do("allocation.allocate", root, req, func() { alloc = allocation.Allocate(b.fr, wl, deployConfig.Sites) })
	var dd *dict.Dictionary
	tr.do("dict.build", root, req, func() { dd = dict.Build(b.fr, alloc, wl) })
	tr.do("exec.new", root, req, func() {
		b.cl = cluster.New(deployConfig.Sites, workersPerSite)
		b.eng, err = exec.New(b.cl, dd, b.fr, alloc, hc)
	})
	if err != nil {
		return nil, fmt.Errorf("traced engine: %w", err)
	}
	b.dec = &decompose.Decomposer{Dict: dd, HC: hc}
	for _, f := range b.fr.All() {
		b.frags[f.ID] = f
	}
	var url string
	b.site, url, err = listen(transport.NewSiteServer(transport.ServerConfig{Cluster: b.cl, Dict: b.g.Dict}))
	if err != nil {
		return nil, err
	}
	b.clients = make(map[int]*transport.SiteClient)
	remotes := make(map[int]cluster.SiteEval)
	for id := 0; id < deployConfig.Sites; id++ {
		b.clients[id] = transport.NewSiteClient(transport.ClientConfig{BaseURL: url, Site: id, Dict: b.g.Dict})
		remotes[id] = b.clients[id]
	}
	if remote {
		b.eng.Remotes = remotes
	}
	return b, nil
}

// queryTrace holds one sampled request's per-layer values, keyed by
// metric name.
type queryTrace map[string]float64

// countWriter counts the bytes written through it.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// traceQuery traces one request. The "request" tree replays the served
// path in-process (parse, prepare, execute, decode, serialize); the
// "http.query" span sends the same text to the served listener and is
// the traced end-to-end time; the "diagnose" tree re-runs the work
// behind prepare and execute one layer at a time.
func traceQuery(tr *tracer, b *tracedBuild, r request, rid int, servedURL string, client *http.Client) (queryTrace, error) {
	ctx := context.Background()
	out := queryTrace{}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	root := tr.begin("request", -1, rid)
	var q *sparql.Graph
	var err error
	out["sparql.parse_us"] = us(tr.do("sparql.parse", root, rid, func() { q, err = sparql.NewParser(b.g.Dict).Parse(r.text) }))
	if err != nil {
		return nil, fmt.Errorf("traced parse: %w", err)
	}
	var prep *exec.Prepared
	out["exec.prepare_us"] = us(tr.do("exec.prepare", root, rid, func() { prep, err = b.eng.Prepare(q) }))
	if err != nil {
		return nil, fmt.Errorf("traced prepare: %w", err)
	}
	var res *match.Bindings
	var st *exec.QueryStats
	out["exec.query_prepared_ms"] = ms(tr.do("exec.query_prepared", root, rid, func() { res, st, err = b.eng.QueryPrepared(ctx, q, prep) }))
	if err != nil {
		return nil, fmt.Errorf("traced execute: %w", err)
	}
	if len(res.Rows) != r.want {
		return nil, fmt.Errorf("traced execute of %s: %d rows, oracle says %d", r.template, len(res.Rows), r.want)
	}
	rows := make([][]string, len(res.Rows))
	out["rdffrag.decode_ms"] = ms(tr.do("rdffrag.decode", root, rid, func() {
		for i, row := range res.Rows {
			cells := make([]string, len(row))
			for j, id := range row {
				if id != rdf.NoID {
					cells[j] = b.g.Dict.Decode(id).String()
				}
			}
			rows[i] = cells
		}
	}))
	var cw countWriter
	out["rdffrag.write_json_ms"] = ms(tr.do("rdffrag.write_json", root, rid, func() {
		err = (&rdffrag.Result{Vars: res.Vars, Rows: rows}).WriteJSON(&cw)
	}))
	if err != nil {
		return nil, fmt.Errorf("traced WriteJSON: %w", err)
	}
	tr.end(root)
	out["rdffrag.response_bytes"] = float64(cw.n)
	out["cluster.rows_shipped"] = float64(st.IntermediateRows)
	out["cluster.sites_touched"] = float64(st.SitesTouched)
	out["decompose.subqueries"] = float64(len(prep.Dcp.Subqueries))
	out["result_rows"] = float64(len(res.Rows))

	var buf bytes.Buffer
	var code int
	e2e := tr.do("http.query", -1, rid, func() { code, err = post(ctx, client, http.MethodPost, servedURL+"/query", r.text, &buf) })
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("traced /query: status %d: %v", code, err)
	}
	if n, err := countBindings(buf.Bytes()); err != nil || n != r.want {
		return nil, fmt.Errorf("traced /query of %s: %d rows, oracle says %d (%v)", r.template, n, r.want, err)
	}
	out["e2e_ms"] = ms(e2e)

	if err := traceDiagnose(tr, b, q, r, rid, out); err != nil {
		return nil, err
	}
	return out, nil
}

// traceDiagnose times decomposition, optimization, each subquery's site
// evals, matches and transport evals on the sites and fragments Explain
// routes it to, and the control-site join fold.
func traceDiagnose(tr *tracer, b *tracedBuild, q *sparql.Graph, r request, rid int, out queryTrace) error {
	ctx := context.Background()
	root := tr.begin("diagnose", -1, rid)
	defer tr.end(root)
	var dcp *decompose.Decomposition
	var err error
	out["decompose.decompose_us"] = float64(tr.do("decompose.decompose", root, rid, func() { dcp, err = b.dec.Decompose(q) })) / 1e3
	if err != nil {
		return fmt.Errorf("traced decompose: %w", err)
	}
	var pl *plan.Plan
	out["plan.optimize_us"] = float64(tr.do("plan.optimize", root, rid, func() { pl, err = plan.Optimize(dcp) })) / 1e3
	if err != nil {
		return fmt.Errorf("traced optimize: %w", err)
	}
	ex, err := b.eng.Explain(q)
	if err != nil {
		return fmt.Errorf("traced explain: %w", err)
	}
	if len(ex.Subqueries) != len(dcp.Subqueries) {
		return fmt.Errorf("explain routes %d subqueries, decomposition has %d", len(ex.Subqueries), len(dcp.Subqueries))
	}
	var evalD, findD, transD time.Duration
	evaluated := make([]*match.Bindings, len(dcp.Subqueries))
	for i, sq := range dcp.Subqueries {
		bySite := make(map[int][]int)
		var sites []int
		for _, f := range ex.Subqueries[i].Fragments {
			if _, ok := bySite[f.Site]; !ok {
				sites = append(sites, f.Site)
			}
			bySite[f.Site] = append(bySite[f.Site], f.ID)
		}
		var parts []*match.Bindings
		for _, s := range sites {
			req := cluster.EvalRequest{SiteID: s, FragIDs: bySite[s], Query: sq.Graph}
			var got *match.Bindings
			evalD += tr.do("cluster.eval", root, rid, func() { got, err = b.cl.Eval(ctx, req) })
			if err != nil {
				return fmt.Errorf("traced cluster eval: %w", err)
			}
			parts = append(parts, got)
			for _, id := range bySite[s] {
				g := b.frags[id].Graph
				findD += tr.do("match.find", root, rid, func() {
					sn := g.Snapshot()
					match.Find(sq.Graph, sn, match.Options{})
					sn.Close()
				})
			}
			transD += tr.do("transport.eval", root, rid, func() {
				err = b.clients[s].EvalStream(ctx, req, 0, func(*match.Bindings) error { return nil })
			})
			if err != nil {
				return fmt.Errorf("traced transport eval: %w", err)
			}
		}
		if len(parts) == 0 {
			parts = append(parts, &match.Bindings{Vars: sq.Graph.Vars()})
		}
		evaluated[i] = cluster.Union(parts...)
	}
	out["cluster.eval_ms"] = float64(evalD) / 1e6
	out["match.find_ms"] = float64(findD) / 1e6
	out["transport.eval_ms"] = float64(transD) / 1e6
	var joined *match.Bindings
	out["cluster.join_ms"] = float64(tr.do("cluster.join", root, rid, func() {
		joined = evaluated[pl.Order[0]]
		for _, idx := range pl.Order[1:] {
			joined = cluster.HashJoin(joined, evaluated[idx])
		}
	})) / 1e6
	if n := len(cluster.Project(joined, q.Select).Rows); n != r.want {
		return fmt.Errorf("traced join fold of %s: %d rows, oracle says %d", r.template, n, r.want)
	}
	return nil
}

// writeTrace holds the write path's traced values.
type writeTrace struct {
	bootstrap, load          float64   // seconds
	checkpoint               []float64 // seconds
	update, updateCompacting []float64 // milliseconds
	replayed                 uint64
	deltaMax                 int
	wal                      rdffrag.ServerMetrics
	bodyBytes                int64
}

// traceWrites times the durable write path in-process on c: Bootstrap,
// Update and Overwrite calls sized to span a compaction, two explicit
// checkpoints, then an abandoned server whose checkpoint is reloaded
// with LoadDeployment and whose directory is recovered.
func traceWrites(tr *tracer, c *corpus, dir string, seed uint64) (*writeTrace, error) {
	const req = -2
	root := tr.begin("write", -1, req)
	defer tr.end(root)
	db := rdffrag.Open(deployConfig)
	if _, err := db.LoadNTriples(bytes.NewReader(c.nt)); err != nil {
		return nil, err
	}
	dep, err := db.Deploy(c.log)
	if err != nil {
		return nil, err
	}
	dur, err := rdffrag.OpenDurable(rdffrag.DurabilityConfig{Dir: dir, Sync: walSync})
	if err != nil {
		return nil, err
	}
	wt := &writeTrace{}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	wt.bootstrap = sec(tr.do("rdffrag.bootstrap", root, req, func() { err = dur.Bootstrap(dep) }))
	if err != nil {
		return nil, err
	}
	srv := dep.StartServer(rdffrag.ServerConfig{Durable: dur})
	ws := newWriteState(seed)
	// Enough batches to grow the delta past the 25% compaction threshold.
	batches := int(0.3*float64(c.triples))/(2*batchEntities) + 1
	const tail = 64 // batches after the last checkpoint, left for replay
	ctx := context.Background()
	compactions := uint64(0)
	for i := 0; i < batches+tail; i++ {
		bt := ws.nextBatch(i)
		var st *rdffrag.UpdateResult
		d := tr.do("serve.update", root, req, func() {
			if bt.put {
				st, err = srv.Overwrite(ctx, bt.del, bt.ins, 0)
			} else {
				st, err = srv.Update(ctx, bt.ins)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("traced update %d: %w", i, err)
		}
		wt.bodyBytes += int64(len(bt.body()))
		ws.apply(bt.sets)
		wt.deltaMax = max(wt.deltaMax, st.DeltaTriples)
		wt.update = append(wt.update, float64(d)/1e6)
		if st.Compactions > compactions {
			compactions = st.Compactions
			wt.updateCompacting = append(wt.updateCompacting, float64(d)/1e6)
		}
		if i == batches/2 || i == batches-1 {
			wt.checkpoint = append(wt.checkpoint, sec(tr.do("rdffrag.checkpoint", root, req, func() { err = dur.Checkpoint() })))
			if err != nil {
				return nil, err
			}
		}
	}
	wt.wal = srv.Metrics()
	if err := settle(dur); err != nil {
		return nil, err
	}
	// Abandoned: no Close, so no final checkpoint and no clean marker.
	f, err := os.Open(filepath.Join(dir, "checkpoint.snap"))
	if err != nil {
		return nil, err
	}
	wt.load = sec(tr.do("persist.load", root, req, func() { _, err = rdffrag.LoadDeployment(f, deployConfig) }))
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("traced LoadDeployment: %w", err)
	}
	rec, err := rdffrag.OpenDurable(rdffrag.DurabilityConfig{Dir: dir, Sync: walSync})
	if err != nil {
		return nil, err
	}
	rdep, err := rec.Recover(deployConfig)
	if err != nil {
		return nil, fmt.Errorf("traced recover: %w", err)
	}
	wt.replayed = rec.ReplayedRecords()
	if err := verifyRecovered(rdep, ws); err != nil {
		return nil, fmt.Errorf("traced recovery: %w", err)
	}
	return wt, nil
}

// settle waits until the abandoned server's background checkpointer has
// finished any checkpoint the last batches kicked: no checkpoint
// completes for a quiet period several times longer than a checkpoint of
// these corpora takes, so recovery reads a directory nothing writes.
func settle(dur *rdffrag.Durable) error {
	const quiet = 2 * time.Second
	last, since := dur.Checkpoints(), time.Now()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if n := dur.Checkpoints(); n != last {
			last, since = n, time.Now()
			continue
		}
		if time.Since(since) >= quiet {
			return nil
		}
	}
	return fmt.Errorf("background checkpointer did not settle")
}

// verifyRecovered checks that a recovered deployment holds exactly the
// writer's acknowledged state: every entity at its newest acknowledged
// name version, and no older version left behind.
func verifyRecovered(dep *rdffrag.Deployment, ws *writeState) error {
	res, err := dep.Query(`SELECT ?s ?n WHERE { ?s <foaf:name> ?n . }`)
	if err != nil {
		return err
	}
	seen := 0
	for _, row := range res.Rows {
		if !strings.HasPrefix(row[0], "<bench:W") {
			continue
		}
		seen++
		var k, v int
		if _, err := fmt.Sscanf(row[1], "\"W%d v%d\"", &k, &v); err != nil || row[0] != entityIRI(k) {
			return fmt.Errorf("unexpected recovered name %v", row)
		}
		if k >= len(ws.versions) || ws.versions[k] != v {
			return fmt.Errorf("entity %d recovered at v%d, acknowledged state differs", k, v)
		}
	}
	if seen != len(ws.versions) {
		return fmt.Errorf("recovered %d entity names, acknowledged %d entities", seen, len(ws.versions))
	}
	return nil
}
