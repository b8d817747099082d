package main

import (
	"fmt"
	"path/filepath"
	"time"

	"rdffrag"
)

// layerSpans are the spans of a "request" tree, each a layer the served
// path passes through. The rest of the served time (loopback HTTP,
// admission queue, plan cache, handler) is rdffrag.unaccounted_ms.
var layerSpans = []string{"sparql.parse", "exec.prepare", "exec.query_prepared", "rdffrag.decode", "rdffrag.write_json"}

// perQueryMedians are the traced values reported as their median over
// the sampled requests.
var perQueryMedians = []string{
	"sparql.parse_us", "exec.prepare_us", "decompose.decompose_us", "decompose.subqueries",
	"plan.optimize_us", "exec.query_prepared_ms", "cluster.eval_ms", "match.find_ms",
	"transport.eval_ms", "cluster.rows_shipped", "cluster.sites_touched", "cluster.join_ms",
	"rdffrag.decode_ms", "rdffrag.write_json_ms", "rdffrag.response_bytes",
}

// runTrace runs the traced pass and sets the per-layer metrics it
// measures. s is the served deployment, idle now; its listener answers
// the traced end-to-end requests.
func runTrace(o options, c *corpus, s *served, workdir string, rep *report) error {
	tr := newTracer()
	b, err := traceBuild(tr, c, o.workload == "join")
	if err != nil {
		return err
	}
	defer b.close()
	spanSec := map[string]float64{}
	for _, sp := range tr.spans {
		spanSec[sp.Name] += sp.dur().Seconds()
	}
	for _, name := range []string{"rdf.load", "fragment.hotcold", "mining.mine", "fap.select", "fragment.build", "allocation.allocate", "dict.build", "exec.new"} {
		rep.set(name+"_s", spanSec[name], 1)
	}
	rep.set("fragment.redundancy", b.fr.Redundancy(b.g), 1)

	n := min(traceSamples, len(c.requests))
	client := newClient()
	defer client.CloseIdleConnections()
	traces := make([]queryTrace, n)
	for i := range traces {
		if traces[i], err = traceQuery(tr, b, c.requests[i], i, s.url, client); err != nil {
			return err
		}
	}
	for _, name := range perQueryMedians {
		vals := make([]float64, n)
		for i, t := range traces {
			vals[i] = t[name]
		}
		rep.set(name, median(vals), n)
	}
	var resultRows, shipped float64
	for _, t := range traces {
		resultRows += t["result_rows"]
		shipped += t["cluster.rows_shipped"]
	}
	rep.set("exec.result_row_ratio", resultRows/max(1, shipped), int(shipped))

	unaccounted, e2e, err := reconcile(tr, n)
	rep.check(err)
	rep.set("rdffrag.unaccounted_ms", median(unaccounted), n)
	traced, untraced := median(e2e), rep.metrics["raw.query_p50_ms"].value
	rep.set("trace.overhead_ratio", traced/untraced, n)
	verdict := "ok"
	if err != nil {
		verdict = "FAILED: " + err.Error()
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("tracing overhead: traced end-to-end median %.4f ms vs untraced raw.query_p50_ms %.4f ms (ratio %.3f, %d traced requests)", traced, untraced, traced/untraced, n),
		fmt.Sprintf("reconciliation: layer self-times + rdffrag.unaccounted_ms = traced end-to-end on %d requests: %s", n, verdict))

	wt, err := traceWrites(tr, c, filepath.Join(workdir, "trace-data"), o.seed)
	if err != nil {
		return err
	}
	rep.set("rdffrag.bootstrap_s", wt.bootstrap, 1)
	rep.set("serve.update_ms", median(wt.update), len(wt.update))
	rep.set("serve.update_compacting_ms", median(wt.updateCompacting), len(wt.updateCompacting))
	rep.set("rdffrag.checkpoint_s", median(wt.checkpoint), len(wt.checkpoint))
	rep.set("persist.load_s", wt.load, 1)
	rep.set("rdffrag.replayed_records", float64(wt.replayed), 1)
	if _, ok := rep.metrics["wal.checkpoints"]; !ok {
		// No WAL in the served run: take its counters from the trace.
		rep.setWAL(wt.wal, rdffrag.ServerMetrics{}, wt.bodyBytes, len(wt.update))
		rep.set("rdf.delta_triples_max", float64(wt.deltaMax), len(wt.update))
	}

	path, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return err
	}
	if err := tr.write(path); err != nil {
		return err
	}
	rep.lines = append(rep.lines, fmt.Sprintf("spans: %d written to %s", len(tr.spans), path))
	return nil
}

// reconcile checks each traced request's "request" tree: its spans'
// self-times must add up to the tree's duration, so no layer time is
// counted twice or lost. The unaccounted time is then the traced
// end-to-end ("http.query") time minus the layer self-times, so that the
// two sum to it exactly. It returns each request's unaccounted and
// end-to-end times in milliseconds.
func reconcile(tr *tracer, n int) (unaccounted, e2e []float64, err error) {
	self := tr.selfTimes()
	type acc struct {
		root, tree, layers, e2e time.Duration
		haveRoot, haveE2E       bool
	}
	reqs := make([]acc, n)
	inTree := make([]bool, len(tr.spans))
	for i, sp := range tr.spans {
		if sp.Req < 0 || sp.Req >= n {
			continue
		}
		a := &reqs[sp.Req]
		switch {
		case sp.Name == "request" && sp.Parent < 0:
			a.root, a.haveRoot = sp.dur(), true
			a.tree += self[i]
			inTree[i] = true
		case sp.Name == "http.query":
			a.e2e, a.haveE2E = sp.dur(), true
		case sp.Parent >= 0 && inTree[sp.Parent]:
			inTree[i] = true
			a.tree += self[i]
			for _, l := range layerSpans {
				if sp.Name == l {
					a.layers += self[i]
				}
			}
		}
	}
	for i, a := range reqs {
		if !a.haveRoot || !a.haveE2E {
			return nil, nil, fmt.Errorf("request %d: incomplete trace", i)
		}
		if d := a.tree - a.root; d < -time.Microsecond || d > time.Microsecond {
			return nil, nil, fmt.Errorf("request %d: self-times sum to %v, span lasted %v", i, a.tree, a.root)
		}
		unaccounted = append(unaccounted, ms(a.e2e-a.layers))
		e2e = append(e2e, ms(a.e2e))
	}
	return unaccounted, e2e, nil
}
