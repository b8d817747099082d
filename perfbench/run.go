package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdffrag"
	"rdffrag/internal/serve"
)

// Run shape. Every workload sets up setupReps times and reports the
// median, so setup_s is steady; the timed phase follows a warm-up that
// fills the plan cache and connection pools, and is cut into load slices
// with a host-speed calibration after each (hostspeed.go).
const (
	setupReps = 3
	warmup    = 2 * time.Second
	loadSlice = time.Second
	// queryClients is one closed-loop client: with two on the 2-vCPU
	// reference host, the clients, the handlers and the GC outnumber the
	// cores, and the timings followed the scheduler more than the program.
	queryClients = 1
	// writeRate is the open-loop writer's batches per second: with
	// batchEntities-sized batches it spans several compactions per run.
	writeRate = 100
	// traceSamples bounds the traced requests per workload.
	traceSamples = 200
)

// report is everything a run measured.
type report struct {
	tally
	metrics   map[string]metric
	checkErrs []string
	// lines are printed after the metric tables.
	lines []string
}

func (r *report) set(name string, v float64, n int) { r.metrics[name] = metric{value: v, n: n} }

func (r *report) check(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

func genCorpus(o options) (*corpus, error) {
	sz := sizes[o.size]
	if o.workload == "join" {
		return genWatDiv(sz, o.seed)
	}
	return genDBpedia(sz, o.seed)
}

func runWorkload(o options) (*report, error) {
	c, err := genCorpus(o)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	if o.corruptOracle {
		c.requests[0].want++
	}
	workdir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)
	rep := &report{metrics: map[string]metric{}}
	remote := o.workload == "join"
	durable := o.workload == "write"

	cal, err := newCalKernel()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	// Set up several times, calibrating before each set-up and after the
	// last; serve from the last deployment.
	var s *served
	setups := make([]float64, 0, setupReps)
	var setupCal []time.Duration
	for i := 0; i < setupReps; i++ {
		setupCal = append(setupCal, cal.run())
		dir := ""
		if durable {
			dir = filepath.Join(workdir, fmt.Sprintf("data-%d", i))
		}
		next, d, err := deploy(c, remote, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if s != nil {
			s.close()
		}
		s = next
	}
	setupCal = append(setupCal, cal.run())
	defer s.stopListeners()

	// The corpus bytes are the generator's copy: keep them out of the
	// heap measurement, on disk for the traced pass.
	ntPath := filepath.Join(workdir, "corpus.nt")
	if o.trace {
		if err := os.WriteFile(ntPath, c.nt, 0o644); err != nil {
			return nil, err
		}
	}
	c.nt = nil

	var ws *writeState
	var acked *ackedKey
	if durable {
		ws, acked = newWriteState(o.seed), &ackedKey{}
	}
	var next atomic.Int64
	runtime.GC()                                           // collect the discarded set-ups before timing
	runLoad(s, c, &next, time.Now().Add(warmup), nil, nil) // warm-up, unrecorded
	ph, err := measure(s, c, &next, time.Duration(o.seconds*float64(time.Second)), ws, acked, cal)
	if err != nil {
		return nil, err
	}
	ph.report(rep, median(setups), setupCal)
	ph = nil
	// Live heap after a forced GC, with the generator's copies and the
	// load generator's latency samples released.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	triples := s.db.Graph().LiveTriples()
	rep.set("heap_bytes_per_triple", float64(mem.HeapAlloc)/float64(triples), triples)

	if o.trace {
		if c.nt, err = os.ReadFile(ntPath); err != nil {
			return nil, err
		}
		if err := runTrace(o, c, s, workdir, rep); err != nil {
			return nil, err
		}
	}

	if durable {
		// Abandon the server without Close, then recover its directory.
		s.stopListeners()
		if err := settle(s.dur); err != nil {
			return nil, err
		}
		t0 := time.Now()
		rec, err := rdffrag.OpenDurable(rdffrag.DurabilityConfig{Dir: s.dir, Sync: walSync})
		if err != nil {
			return nil, err
		}
		rdep, err := rec.Recover(deployConfig)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		rep.set("recover_s", time.Since(t0).Seconds(), 1)
		rep.check(verifyRecovered(rdep, ws))
	}
	return rep, nil
}

// phase is what the timed phase recorded.
type phase struct {
	tally        // reads and writes
	reads        tally
	seconds      float64 // under load, calibrations excluded
	queryLat     []time.Duration
	writer       *writerResult
	cal          []time.Duration // one calibration after each load slice
	m0, m1       rdffrag.ServerMetrics
	site0, site1 siteCounters
	// Runtime counters summed over the load slices only.
	allocBytes, gcPauseNs uint64
	gcCycles              uint32
}

// runLoad drives the workload's load goroutines until stop: the query
// clients, and on write one reader plus the open-loop writer.
func runLoad(s *served, c *corpus, next *atomic.Int64, stop time.Time, ws *writeState, acked *ackedKey) ([]clientResult, *writerResult) {
	var wg sync.WaitGroup
	readers := queryClients
	var wr *writerResult
	if ws != nil {
		readers = 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := runWriter(s.url, ws, time.Now(), stop, acked)
			wr = &res
		}()
	}
	results := make([]clientResult, readers)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = queryClient(s.url, c.requests, next, stop, acked)
		}(i)
	}
	wg.Wait()
	return results, wr
}

// measure runs the timed phase for d: load slices of loadSlice, each
// followed by a calibration of the host's speed.
func measure(s *served, c *corpus, next *atomic.Int64, d time.Duration, ws *writeState, acked *ackedKey, cal *calKernel) (*phase, error) {
	ph := &phase{}
	var err error
	if ph.site0, err = s.siteCounters(); err != nil {
		return nil, err
	}
	ph.m0 = s.srv.Metrics()
	end := time.Now().Add(d)
	for now := time.Now(); now.Before(end); now = time.Now() {
		stop := now.Add(loadSlice)
		if stop.After(end) {
			stop = end
		}
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		results, wr := runLoad(s, c, next, stop, ws, acked)
		ph.seconds += time.Since(now).Seconds()
		runtime.ReadMemStats(&mem1)
		ph.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
		ph.gcPauseNs += mem1.PauseTotalNs - mem0.PauseTotalNs
		ph.gcCycles += mem1.NumGC - mem0.NumGC
		for _, r := range results {
			ph.reads.add(r.tally)
			ph.queryLat = append(ph.queryLat, r.lat...)
		}
		if wr != nil {
			if ph.writer == nil {
				ph.writer = &writerResult{}
			}
			ph.writer.add(wr)
		}
		ph.cal = append(ph.cal, cal.run())
	}
	ph.m1 = s.srv.Metrics()
	if ph.site1, err = s.siteCounters(); err != nil {
		return nil, err
	}
	ph.add(ph.reads)
	if ph.writer != nil {
		ph.add(ph.writer.tally)
	}
	return ph, nil
}

// siteCounters are the site host's /metrics counters.
type siteCounters struct {
	Rows    uint64 `json:"rows"`
	Batches uint64 `json:"batches"`
}

func (s *served) siteCounters() (siteCounters, error) {
	var sc siteCounters
	if s.siteURL == "" {
		return sc, nil
	}
	resp, err := http.Get(s.siteURL + "/metrics")
	if err != nil {
		return sc, fmt.Errorf("site metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		return sc, fmt.Errorf("site metrics: %w", err)
	}
	return sc, nil
}

// report turns the timed phase and the set-up time into end-to-end and
// [run] metrics. The gated timings are scaled to the reference host's
// speed; the raw.* metrics keep them as measured.
func (ph *phase) report(rep *report, setup float64, setupCal []time.Duration) {
	rep.add(ph.tally)
	queries := len(ph.queryLat)
	completed := ph.reads.attempted - ph.reads.failed - ph.reads.wrong
	loadSlowdown, setupSlowdown := slowdown(ph.cal), slowdown(setupCal)
	rep.set("host.cal_ms", medianMs(ph.cal), len(ph.cal))
	rep.set("host.slowdown", loadSlowdown, len(ph.cal))
	rep.set("host.setup_slowdown", setupSlowdown, len(setupCal))
	timings := []struct {
		name     string
		value    float64
		n        int
		slowdown float64
		rate     bool
	}{
		{"setup_s", setup, setupReps, setupSlowdown, false},
		{"query_qps", float64(completed) / ph.seconds, completed, loadSlowdown, true},
		{"query_p50_ms", ms(percentile(ph.queryLat, 0.50)), queries, loadSlowdown, false},
		{"query_p99_ms", ms(percentile(ph.queryLat, 0.99)), queries, loadSlowdown, false},
	}
	for _, t := range timings {
		rep.set("raw."+t.name, t.value, t.n)
		if t.rate {
			rep.set(t.name, t.value*t.slowdown, t.n)
		} else {
			rep.set(t.name, t.value/t.slowdown, t.n)
		}
	}
	rep.set("failed_frac", float64(ph.failed+ph.wrong)/float64(max(1, ph.attempted)), ph.attempted)

	lookups := (ph.m1.CacheHits + ph.m1.CacheMisses) - (ph.m0.CacheHits + ph.m0.CacheMisses)
	rep.set("serve.cache_hit_ratio", float64(ph.m1.CacheHits-ph.m0.CacheHits)/float64(max(1, lookups)), int(lookups))
	rep.set("transport.rows", float64(ph.site1.Rows-ph.site0.Rows)/float64(max(1, queries)), queries)
	rep.set("transport.batches", float64(ph.site1.Batches-ph.site0.Batches)/float64(max(1, queries)), queries)
	var retries uint64
	for _, sm := range ph.m1.Sites {
		retries += sm.Retries
	}
	for _, sm := range ph.m0.Sites {
		retries -= sm.Retries
	}
	rep.set("transport.retries", float64(retries), queries)
	requests := queries
	if ph.writer != nil {
		requests += len(ph.writer.lat)
	}
	rep.set("runtime.alloc_bytes_per_query", float64(ph.allocBytes)/float64(max(1, requests)), requests)
	rep.set("runtime.gc_pause_ms_per_s", float64(ph.gcPauseNs)/1e6/ph.seconds, int(ph.gcCycles))

	if w := ph.writer; w != nil {
		rep.set("update_p50_ms", ms(percentile(w.lat, 0.50)), len(w.lat))
		rep.set("update_p99_ms", ms(percentile(w.lat, 0.99)), len(w.lat))
		rep.set("loadgen.late_p99_ms", ms(percentile(w.late, 0.99)), len(w.late))
		rep.setWAL(ph.m1, ph.m0, w.bodyBytes, len(w.lat))
		rep.set("rdf.delta_triples_max", float64(w.deltaMax), len(w.lat))
	}
}

// setWAL sets the WAL and compaction counters accumulated between m0
// and m1 over batches acknowledged update batches of userBytes.
func (r *report) setWAL(m1, m0 rdffrag.ServerMetrics, userBytes int64, batches int) {
	if m1.WAL == nil {
		return
	}
	w1 := *m1.WAL
	var w0 serve.WALMetrics
	if m0.WAL != nil {
		w0 = *m0.WAL
	}
	appends, fsyncs := w1.Appends-w0.Appends, w1.Fsyncs-w0.Fsyncs
	r.set("wal.fsyncs_per_batch", float64(fsyncs)/float64(max(1, appends)), int(appends))
	r.set("wal.fsync_p99_us", float64(w1.FsyncP99)/1e3, int(fsyncs))
	r.set("wal.bytes_per_user_byte", float64(w1.AppendedBytes-w0.AppendedBytes)/float64(max(1, userBytes)), batches)
	r.set("wal.checkpoints", float64(w1.Checkpoints-w0.Checkpoints), batches)
	r.set("rdf.compactions", float64(m1.Compactions-m0.Compactions), batches)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func medianMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
