package serve_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"rdffrag/internal/cluster"
	"rdffrag/internal/exec"
	"rdffrag/internal/match"
	"rdffrag/internal/serve"
	"rdffrag/internal/sparql"
	"rdffrag/internal/testenv"
)

var testQueries = []string{
	`SELECT ?x ?n WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`,
	`SELECT ?x WHERE { ?x <placeOfDeath> ?c . ?c <country> ?k . ?c <postalCode> ?z . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <influencedBy> <Person3> . }`,
	`SELECT ?x ?v WHERE { ?x <viaf> ?v . }`,
	`SELECT ?x WHERE { ?x <name> ?n . ?x <viaf> ?v . }`,
	`SELECT ?x ?c WHERE { ?x <placeOfDeath> ?c . }`,
	`SELECT ?x WHERE { ?x <mainInterest> <Interest2> . ?x <influencedBy> ?y . ?y <mainInterest> ?j . }`,
}

func newEngine(t *testing.T, latency cluster.Delay) (*exec.Engine, *testenv.Env) {
	t.Helper()
	env, err := testenv.Build(testenv.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := cluster.New(4, 2)
	c.Latency = latency
	e, err := exec.New(c, env.Dict, env.Frag, env.Alloc, env.HC)
	if err != nil {
		t.Fatalf("exec.New: %v", err)
	}
	return e, env
}

func rowSet(b *match.Bindings) map[string]int {
	m := make(map[string]int)
	for _, r := range b.Rows {
		m[fmt.Sprint(r)]++
	}
	return m
}

func sameBindings(a, b *match.Bindings) bool {
	if len(a.Vars) != len(b.Vars) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return false
		}
	}
	as, bs := rowSet(a), rowSet(b)
	for k, v := range as {
		if bs[k] != v {
			return false
		}
	}
	return true
}

// TestConcurrentClientsMatchSequential drives the server with many
// concurrent clients issuing a mixed workload and asserts every response
// is identical to the single-threaded engine's answer. Run under -race
// in CI, this is the concurrency gate for the streaming pipeline and the
// shared plan cache.
func TestConcurrentClientsMatchSequential(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})

	// Sequential ground truth, computed before the server touches the
	// engine.
	parsed := make([]*sparql.Graph, len(testQueries))
	want := make([]*match.Bindings, len(testQueries))
	for i, qs := range testQueries {
		q := sparql.MustParse(env.G.Dict, qs)
		b, _, err := engine.Query(q)
		if err != nil {
			t.Fatalf("sequential Query(%s): %v", qs, err)
		}
		parsed[i], want[i] = q, b
	}

	srv := serve.New(engine, serve.Config{Workers: 6, QueueDepth: 256})
	defer srv.Close()

	const clients = 8
	const reps = 5
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				// Each client walks the workload at a different offset so
				// distinct queries overlap in time.
				for i := range parsed {
					j := (i + c) % len(parsed)
					resp, err := srv.Query(context.Background(), parsed[j])
					if err != nil {
						errCh <- fmt.Errorf("client %d query %d: %w", c, j, err)
						return
					}
					if !sameBindings(resp.Bindings, want[j]) {
						errCh <- fmt.Errorf("client %d query %d: concurrent result diverged (%d rows vs %d)",
							c, j, len(resp.Bindings.Rows), len(want[j].Rows))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if got, wantN := m.Completed, uint64(clients*reps*len(parsed)); got != wantN {
		t.Errorf("Completed = %d, want %d", got, wantN)
	}
	if m.CacheHits == 0 {
		t.Errorf("expected plan cache hits across repeated queries, got 0 (misses %d)", m.CacheMisses)
	}
	if m.P95 < m.P50 || m.P99 < m.P95 {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v", m.P50, m.P95, m.P99)
	}
}

// TestTimeout checks that a per-query deadline aborts a slow distributed
// execution instead of letting it run to completion.
func TestTimeout(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: 50 * time.Millisecond})
	srv := serve.New(engine, serve.Config{Workers: 2, Timeout: time.Millisecond})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, testQueries[0])
	_, err := srv.Query(context.Background(), q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query with 1ms timeout on a 50ms/message cluster: err = %v, want DeadlineExceeded", err)
	}
	if m := srv.Metrics(); m.TimedOut == 0 {
		t.Errorf("TimedOut = 0 after a deadline failure")
	}
}

// TestCancellation checks that cancelling the caller's context abandons
// the query.
func TestCancellation(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: 50 * time.Millisecond})
	srv := serve.New(engine, serve.Config{Workers: 1})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, testQueries[1])
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := srv.Query(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Query after cancel: err = %v, want Canceled", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("cancellation took %v; expected prompt return", el)
	}
}

// TestOverload fills a tiny admission queue and expects fail-fast
// rejections rather than unbounded queueing.
func TestOverload(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{PerMessage: 20 * time.Millisecond})
	srv := serve.New(engine, serve.Config{Workers: 1, QueueDepth: 1})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, testQueries[0])
	const burst = 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	var rejected, completed int
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.Query(context.Background(), q)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				rejected++
			case err == nil:
				completed++
			}
		}()
	}
	wg.Wait()
	if rejected == 0 {
		t.Errorf("burst of %d on a depth-1 queue with 1 worker: no rejections", burst)
	}
	if completed == 0 {
		t.Errorf("burst of %d: nothing completed", burst)
	}
	if m := srv.Metrics(); m.Rejected != uint64(rejected) {
		t.Errorf("Metrics.Rejected = %d, counted %d", m.Rejected, rejected)
	}
}

// TestPlanCache checks that repeated and reordered-but-identical patterns
// hit the cache while structurally new ones miss.
func TestPlanCache(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{Workers: 1})
	defer srv.Close()

	a := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <name> ?n . ?x <mainInterest> ?i . }`)
	// Same pattern, triple order swapped: must share a plan.
	b := sparql.MustParse(env.G.Dict, `SELECT ?x WHERE { ?x <mainInterest> ?i . ?x <name> ?n . }`)
	// Alpha-renamed: must NOT share a plan (output vars differ).
	c := sparql.MustParse(env.G.Dict, `SELECT ?a WHERE { ?a <name> ?m . ?a <mainInterest> ?j . }`)

	for _, q := range []*sparql.Graph{a, a, b, c} {
		if _, err := srv.Query(context.Background(), q); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	m := srv.Metrics()
	if m.CacheHits != 2 { // second a, and b
		t.Errorf("CacheHits = %d, want 2", m.CacheHits)
	}
	if m.CacheMisses != 2 { // first a, and c
		t.Errorf("CacheMisses = %d, want 2", m.CacheMisses)
	}

	// The cached plan for a must still answer c correctly (no
	// cross-contamination).
	respC, err := srv.Query(context.Background(), c)
	if err != nil {
		t.Fatalf("Query(c): %v", err)
	}
	wantC, _, err := engine.Query(c)
	if err != nil {
		t.Fatalf("engine.Query(c): %v", err)
	}
	if !sameBindings(respC.Bindings, wantC) {
		t.Errorf("alpha-renamed query served wrong rows")
	}
	if respC.Bindings.Vars[0] != "a" {
		t.Errorf("projection vars = %v, want [a]", respC.Bindings.Vars)
	}
}

// TestClosedServer checks post-Close submissions fail with ErrClosed.
func TestClosedServer(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{})
	srv.Close()
	q := sparql.MustParse(env.G.Dict, testQueries[0])
	if _, err := srv.Query(context.Background(), q); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Query after Close: err = %v, want ErrClosed", err)
	}
	srv.Close() // second Close must not panic
}

// TestLRUEviction exercises the cache bound: more distinct shapes than
// capacity must not grow the cache past its limit, and the server keeps
// answering correctly.
func TestLRUEviction(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{Workers: 2, PlanCacheSize: 2})
	defer srv.Close()

	// Rotate through 4 distinct constants so each is its own plan entry.
	for r := 0; r < 3; r++ {
		for i := 0; i < 4; i++ {
			qs := fmt.Sprintf(`SELECT ?x WHERE { ?x <mainInterest> <Interest%d> . }`, i)
			q := sparql.MustParse(env.G.Dict, qs)
			resp, err := srv.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("Query(%s): %v", qs, err)
			}
			want, _, err := engine.Query(q)
			if err != nil {
				t.Fatalf("engine.Query(%s): %v", qs, err)
			}
			if !sameBindings(resp.Bindings, want) {
				t.Errorf("round %d query %d: wrong rows after eviction churn", r, i)
			}
		}
	}
	m := srv.Metrics()
	if m.CacheHits+m.CacheMisses != 12 {
		t.Errorf("lookups = %d, want 12", m.CacheHits+m.CacheMisses)
	}
	// With capacity 2 and a 4-shape round-robin, every lookup misses.
	if m.CacheMisses != 12 {
		t.Errorf("CacheMisses = %d, want 12 (capacity 2 thrashing)", m.CacheMisses)
	}
}

// TestMetricsOrderedLatencies sanity-checks the percentile estimator.
func TestMetricsOrderedLatencies(t *testing.T) {
	engine, env := newEngine(t, cluster.Delay{})
	srv := serve.New(engine, serve.Config{Workers: 4})
	defer srv.Close()

	q := sparql.MustParse(env.G.Dict, testQueries[5])
	for i := 0; i < 20; i++ {
		if _, err := srv.Query(context.Background(), q); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	m := srv.Metrics()
	if m.Completed != 20 || m.QPS <= 0 || m.P50 <= 0 {
		t.Errorf("metrics after 20 queries: completed=%d qps=%f p50=%v", m.Completed, m.QPS, m.P50)
	}
	lats := []time.Duration{m.P50, m.P95, m.P99}
	if !sort.SliceIsSorted(lats, func(i, j int) bool { return lats[i] < lats[j] }) {
		t.Errorf("percentiles not monotone: %v", lats)
	}
}
