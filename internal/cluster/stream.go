package cluster

// Streaming site RPC and the pipelined control-site join. Instead of the
// materialize-then-ship round trip of Eval, EvalStream lets a site push
// binding batches to the control site as the local matcher finds them, and
// JoinStream consumes such batch streams with a symmetric (pipelined) hash
// join: whichever input is ready first builds its hash table incrementally
// while probing the other side's table, so join work overlaps with
// subquery evaluation and shipping. Query latency becomes the longest
// chain through the pipeline rather than the sum of barrier-separated
// phases.

import (
	"context"
	"fmt"
	"sync"

	"rdffrag/internal/match"
	"rdffrag/internal/rdf"
)

// DefaultBatchSize is the number of binding rows shipped per streamed
// batch when the caller does not choose one. Large enough to amortize the
// per-message network cost, small enough that the first batch arrives
// quickly.
const DefaultBatchSize = 256

// BatchSink receives one shipped batch of bindings. Fragments evaluate in
// parallel, so the sink must be safe for concurrent use. Returning an
// error stops the stream.
type BatchSink func(*match.Bindings) error

// EvalStream evaluates a subquery at a site like Eval, but ships binding
// batches of up to batchSize rows as soon as they are produced instead of
// materializing the full result first. Each batch pays one response
// message of simulated network cost. Batches are deduplicated within
// themselves only; cross-batch duplicates (overlapping fragments) are the
// consumer's concern, exactly as cross-site duplicates already were.
// Fragments evaluate concurrently under the site's worker pool, at most
// GOMAXPROCS at once; each fragment's batches arrive in the matcher's
// deterministic enumeration order.
func (c *Cluster) EvalStream(ctx context.Context, req EvalRequest, batchSize int, sink BatchSink) error {
	if req.SiteID < 0 || req.SiteID >= len(c.Sites) {
		return fmt.Errorf("cluster: site %d out of range", req.SiteID)
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	s := c.Sites[req.SiteID]
	reqBytes := estimateQueryBytes(req.Query)
	c.Net.Messages.Add(1)
	c.Net.Bytes.Add(int64(reqBytes))
	if err := c.sendRequest(ctx, reqBytes); err != nil {
		return err
	}

	graphs, err := s.resolve(req)
	if err != nil {
		return err
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	s.evalFragments(ctx, graphs, func(_ int, g *rdf.Graph) {
		match.FindBatches(req.Query, req.View.Snap(g), match.Options{VertexFilter: req.Filter}, batchSize, func(ms []match.Match) bool {
			if err := ctx.Err(); err != nil {
				fail(err)
				return false
			}
			b := match.ToBindings(req.Query, ms)
			b.Dedup()
			respBytes := len(b.Rows) * len(b.Vars) * 4
			c.Net.Messages.Add(1)
			c.Net.Bytes.Add(int64(respBytes))
			if err := c.receiveResponse(ctx, respBytes); err != nil {
				fail(err)
				return false
			}
			if err := sink(b); err != nil {
				fail(err)
				return false
			}
			return true
		})
	})
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// JoinVars returns the output column layout of a join of two binding
// streams: left's variables followed by right's non-shared variables,
// matching HashJoin.
func JoinVars(leftVars, rightVars []string) []string {
	_, rightOnly := alignVars(leftVars, rightVars)
	return append(append([]string(nil), leftVars...), names(rightVars, rightOnly)...)
}

// JoinStream runs a symmetric (pipelined) hash join between two batch
// streams and closes out when done. Both inputs build a hash table
// incrementally: each arriving row is inserted into its side's table and
// probed against the other side's rows seen so far, so every matching
// pair is emitted exactly once, as soon as its later row arrives. With no
// shared variables it degrades to a streamed Cartesian product. Output
// columns follow JoinVars(leftVars, rightVars); the row multiset equals
// HashJoin's, in arrival order rather than HashJoin's order. Rows missing
// a shared column match nothing. Cancelling ctx stops the join promptly;
// the inputs are then left undrained (producers must also watch ctx).
func JoinStream(ctx context.Context, leftVars, rightVars []string, left, right <-chan *match.Bindings, out chan<- *match.Bindings) {
	defer close(out)
	j := newJoinGeom(leftVars, rightVars)
	s := &symJoiner{j: j, leftTab: newJoinTable(j.shared, 0), rightTab: newJoinTable(j.shared, 0)}
	for left != nil || right != nil {
		select {
		case b, ok := <-left:
			if !ok {
				left = nil
				continue
			}
			if !emitRows(ctx, out, j.outVars, s.probeLeft(filterKeyable(b.Rows, j, true))) {
				return
			}
		case b, ok := <-right:
			if !ok {
				right = nil
				continue
			}
			if !emitRows(ctx, out, j.outVars, s.probeRight(filterKeyable(b.Rows, j, false))) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// symJoiner is the symmetric hash-join state of one JoinStream: both
// sides' hash tables and rows seen so far. The arena lives for the whole
// stream: merged rows are carved from chunks that survive across batches,
// so emitting N rows costs ~N/chunk allocations instead of N.
type symJoiner struct {
	j                   *joinGeom
	leftTab, rightTab   *joinTable
	leftRows, rightRows [][]rdf.ID
	arena               rowArena
}

// probeLeft inserts a batch of keyable left rows and returns their merged
// matches against the right rows seen so far; probeRight is its mirror
// image.
func (s *symJoiner) probeLeft(batch [][]rdf.ID) [][]rdf.ID {
	var found [][]rdf.ID
	for _, lr := range batch {
		s.leftTab.add(lr, true, int32(len(s.leftRows)))
		s.leftRows = append(s.leftRows, lr)
		for _, ri := range s.rightTab.lookup(lr, true) {
			found = append(found, mergeRows(&s.arena, s.j, lr, s.rightRows[ri]))
		}
	}
	return found
}

func (s *symJoiner) probeRight(batch [][]rdf.ID) [][]rdf.ID {
	var found [][]rdf.ID
	for _, rr := range batch {
		s.rightTab.add(rr, false, int32(len(s.rightRows)))
		s.rightRows = append(s.rightRows, rr)
		for _, li := range s.leftTab.lookup(rr, false) {
			found = append(found, mergeRows(&s.arena, s.j, s.leftRows[li], rr))
		}
	}
	return found
}

// emitRows sends one non-empty output batch, reporting false when ctx is
// done.
func emitRows(ctx context.Context, out chan<- *match.Bindings, vars []string, rows [][]rdf.ID) bool {
	if len(rows) == 0 {
		return true
	}
	select {
	case out <- &match.Bindings{Vars: vars, Rows: rows}:
		return true
	case <-ctx.Done():
		return false
	}
}

// filterKeyable drops rows missing a shared column. Well-formed batches
// (the overwhelmingly common case) pass through without copying.
func filterKeyable(rows [][]rdf.ID, j *joinGeom, left bool) [][]rdf.ID {
	for i, r := range rows {
		if !j.keyable(r, left) {
			kept := append([][]rdf.ID(nil), rows[:i]...)
			for _, r := range rows[i+1:] {
				if j.keyable(r, left) {
					kept = append(kept, r)
				}
			}
			return kept
		}
	}
	return rows
}
