package exec

// Streaming query execution. The materialization barrier of the original
// engine (evaluate every subquery fully, then join sequentially) is
// replaced by a pipeline: each subquery's sites push binding batches over
// a channel as the local matcher finds them, and a chain of symmetric
// hash-join operators (cluster.JoinStream) consumes those streams in the
// optimizer's order. Join work overlaps with evaluation and shipping, so
// query latency tracks the slowest chain through the pipeline rather than
// the sum of barrier-separated phases — and LIMIT queries cancel the
// whole pipeline as soon as enough rows survive projection.

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"rdffrag/internal/cluster"
	"rdffrag/internal/decompose"
	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
	"rdffrag/internal/sparql"
)

// streamBuf is the per-stage channel depth: enough to decouple producer
// and consumer bursts without hoarding batches.
const streamBuf = 4

// runStats collects execution metrics from concurrently running pipeline
// stages.
type runStats struct {
	rows  atomic.Int64
	mu    sync.Mutex
	sites map[int]bool
	// unreachable collects sites skipped in PartialResults mode; any
	// entry flags the whole result partial.
	unreachable map[int]bool
}

func (st *runStats) touch(sites []int) {
	st.mu.Lock()
	for _, s := range sites {
		st.sites[s] = true
	}
	st.mu.Unlock()
}

func (st *runStats) skip(site int) {
	st.mu.Lock()
	st.unreachable[site] = true
	st.mu.Unlock()
}

// unreachableSites returns the skipped sites in ascending order.
func (st *runStats) unreachableSites() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(st.unreachable))
	for s := range st.unreachable {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// siteCount reads the touched-site tally; producers may still be running
// when the pipeline is cancelled early, so the read must take the lock.
func (st *runStats) siteCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sites)
}

// QueryPrepared executes q with a previously prepared plan. The plan must
// come from this engine and a structurally identical query graph.
func (e *Engine) QueryPrepared(ctx context.Context, q *sparql.Graph, prep *Prepared) (*match.Bindings, *QueryStats, error) {
	dcp, pl := prep.Dcp, prep.Plan
	stats := &QueryStats{
		Subqueries:        len(dcp.Subqueries),
		DecompositionCost: dcp.Cost,
		PlanCost:          pl.Cost,
	}
	vars := make([][]string, len(dcp.Subqueries))
	for i, sq := range dcp.Subqueries {
		vars[i] = sq.Graph.Vars()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	st := &runStats{sites: make(map[int]bool), unreachable: make(map[int]bool)}
	errCh := make(chan error, len(dcp.Subqueries))

	// One producer per subquery, streaming batches from its sites.
	// Subqueries, their sites and each site's fragments all evaluate
	// concurrently; each fragment match and each join stage is
	// sequential.
	streams := make([]chan *match.Bindings, len(dcp.Subqueries))
	for i, sq := range dcp.Subqueries {
		streams[i] = make(chan *match.Bindings, streamBuf)
		go func(sq *decompose.Subquery, out chan *match.Bindings) {
			defer close(out)
			if err := e.evalSubqueryStream(ctx, sq, prep.View, out, st); err != nil {
				errCh <- err
				cancel()
			}
		}(sq, streams[i])
	}

	// Chain pipelined joins in optimizer order: stage k joins the running
	// result stream with subquery Order[k]'s stream. consume dedups and
	// sorts the final rows, so arrival order does not reach the caller.
	cur, curVars := (<-chan *match.Bindings)(streams[pl.Order[0]]), vars[pl.Order[0]]
	for _, idx := range pl.Order[1:] {
		next := make(chan *match.Bindings, streamBuf)
		go cluster.JoinStream(ctx, curVars, vars[idx], cur, streams[idx], next)
		cur, curVars = next, cluster.JoinVars(curVars, vars[idx])
	}

	out := e.consume(ctx, cancel, q, cur, curVars)
	stats.SitesTouched = st.siteCount()
	stats.IntermediateRows = int(st.rows.Load())
	stats.UnreachableSites = st.unreachableSites()
	stats.Partial = len(stats.UnreachableSites) > 0

	if err := parent.Err(); err != nil {
		return nil, nil, err
	}
	select {
	case err := <-errCh:
		// context.Canceled here can only be the pipeline's own
		// early-termination cancel (LIMIT satisfied); a caller cancel was
		// caught via parent above.
		if !errors.Is(err, context.Canceled) {
			return nil, nil, err
		}
	default:
	}
	return out, stats, nil
}

// consume drains the final join stream, applying projection, incremental
// deduplication and LIMIT push-down: once Limit distinct rows survive
// projection the whole pipeline is cancelled instead of materializing the
// rest. Rows are returned sorted (Dedup order), matching the engine's
// historical deterministic output.
func (e *Engine) consume(ctx context.Context, cancel context.CancelFunc, q *sparql.Graph, in <-chan *match.Bindings, inVars []string) *match.Bindings {
	// Resolve the projection once, against the full joined layout.
	proj := make([]int, 0, len(q.Select))
	keptVars := inVars
	if len(q.Select) > 0 {
		pos := make(map[string]int, len(inVars))
		for i, v := range inVars {
			pos[v] = i
		}
		kept := make([]string, 0, len(q.Select))
		for _, v := range q.Select {
			if i, ok := pos[v]; ok {
				proj = append(proj, i)
				kept = append(kept, v)
			}
		}
		keptVars = kept
	}
	// ORDER BY is applied by the caller on decoded terms; stopping early
	// would change which rows survive, so only push the limit down for
	// unordered queries.
	limit := 0
	if q.Limit > 0 && len(q.OrderBy) == 0 {
		limit = q.Limit
	}

	out := &match.Bindings{Vars: keptVars}
	seen := newRowSet(len(keptVars))
	for b := range in {
		for _, row := range b.Rows {
			r := row
			if len(q.Select) > 0 {
				r = make([]rdf.ID, len(proj))
				for i, j := range proj {
					r[i] = row[j]
				}
			}
			if !seen.insert(r) {
				continue
			}
			out.Rows = append(out.Rows, r)
			if limit > 0 && len(out.Rows) >= limit {
				cancel() // stop producers and join stages
				sortRows(out)
				return out
			}
		}
	}
	sortRows(out)
	return out
}

// maxPackedCols is how many columns fit the fixed-size packed dedup key;
// it mirrors cluster's join-table keys. Almost every projection is ≤4
// columns wide; wider rows fall back to string keys.
const maxPackedCols = 4

// rowSet dedups binding rows without materializing a string per row: rows
// up to maxPackedCols wide key a map by packed [4]rdf.ID value arrays
// (all rows of one result set share a width, so zero padding cannot
// collide). It removes the last per-row string materialization in the
// query path.
type rowSet struct {
	packed map[[maxPackedCols]rdf.ID]struct{}
	str    map[string]struct{}
}

func newRowSet(width int) *rowSet {
	if width <= maxPackedCols {
		return &rowSet{packed: make(map[[maxPackedCols]rdf.ID]struct{})}
	}
	return &rowSet{str: make(map[string]struct{})}
}

// insert adds the row, reporting whether it was new.
func (s *rowSet) insert(r []rdf.ID) bool {
	if s.packed != nil {
		var k [maxPackedCols]rdf.ID
		copy(k[:], r)
		if _, ok := s.packed[k]; ok {
			return false
		}
		s.packed[k] = struct{}{}
		return true
	}
	b := make([]byte, 0, len(r)*4)
	for _, id := range r {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	k := string(b)
	if _, ok := s.str[k]; ok {
		return false
	}
	s.str[k] = struct{}{}
	return true
}

// sortRows orders rows lexicographically, the order Dedup historically
// produced; rows are already distinct.
func sortRows(b *match.Bindings) {
	sort.Slice(b.Rows, func(i, j int) bool {
		ri, rj := b.Rows[i], b.Rows[j]
		for k := range ri {
			if ri[k] != rj[k] {
				return ri[k] < rj[k]
			}
		}
		return false
	})
}

// evalSubqueryStream routes one subquery to the sites holding its
// relevant fragments and streams their binding batches into out, one
// concurrent evaluation per site. It returns once every site's stream is exhausted (or ctx is cancelled).
// Every site evaluation reads from view, the execution's pinned cut.
func (e *Engine) evalSubqueryStream(ctx context.Context, sq *decompose.Subquery, view *rdf.ViewHandle, out chan<- *match.Bindings, st *runStats) error {
	bySite, err := e.routeSubquery(sq)
	if err != nil {
		return err
	}
	sites := make([]int, 0, len(bySite))
	for s := range bySite {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	st.touch(sites)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, s := range sites {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Remote sites get their own evaluator (retries, breaker);
			// they read current fragment state rather than the pinned
			// view — a view handle cannot travel across processes.
			err := e.evaluatorFor(s).EvalStream(ctx, cluster.EvalRequest{
				SiteID:  s,
				FragIDs: bySite[s],
				Query:   sq.Graph,
				View:    view,
			}, e.BatchSize, func(b *match.Bindings) error {
				st.rows.Add(int64(len(b.Rows)))
				select {
				case out <- b:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
			if err != nil {
				// Degrade gracefully if configured: an unavailable site
				// (retries exhausted or breaker open) is skipped and the
				// result flagged partial instead of failing the query.
				if e.PartialResults && errors.Is(err, cluster.ErrSiteUnavailable) && ctx.Err() == nil {
					st.skip(s)
					return
				}
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return firstErr
}
