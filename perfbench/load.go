package main

// Load generation: closed-loop query clients and the open-loop writer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts attempted, failed and wrong requests, keeping the first
// few notes for the report.
type tally struct {
	attempted, failed, wrong int
	notes                    []string
}

func (t *tally) note(wrong bool, format string, args ...any) {
	if wrong {
		t.wrong++
	} else {
		t.failed++
	}
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, n := range o.notes {
		if len(t.notes) < 5 {
			t.notes = append(t.notes, n)
		}
	}
}

// clientResult is one load goroutine's record.
type clientResult struct {
	tally
	lat []time.Duration
}

// ackedKey is the newest write the writer has seen acknowledged: a
// reader that starts a query after observing it must see that version
// or a newer one.
type ackedKey struct {
	mu      sync.Mutex
	entity  int
	version int
	ok      bool
}

func (a *ackedKey) set(entity, version int) {
	a.mu.Lock()
	a.entity, a.version, a.ok = entity, version, true
	a.mu.Unlock()
}

func (a *ackedKey) get() (entity, version int, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.entity, a.version, a.ok
}

// rywEvery makes every n-th reader query on write a read-your-writes
// probe of the newest acknowledged key.
const rywEvery = 8

// queryClient runs one closed-loop client until stop, taking requests
// from the shared sequence next. With acked set, every rywEvery-th query
// instead reads the newest acknowledged write.
func queryClient(url string, reqs []request, next *atomic.Int64, stop time.Time, acked *ackedKey) clientResult {
	c := newClient()
	defer c.CloseIdleConnections()
	var res clientResult
	var buf bytes.Buffer
	ctx := context.Background()
	for n := 0; time.Now().Before(stop); n++ {
		if acked != nil && n%rywEvery == rywEvery-1 {
			if entity, version, ok := acked.get(); ok {
				res.attempted++
				t0 := time.Now()
				code, err := post(ctx, c, http.MethodPost, url+"/query", entityQuery(entity), &buf)
				res.lat = append(res.lat, time.Since(t0))
				if err != nil || code != http.StatusOK {
					res.note(false, "read-your-writes query: status %d err %v", code, err)
					continue
				}
				if got, err := readVersion(buf.Bytes(), entity); err != nil || got < version {
					res.note(true, "read-your-writes: entity %d acked at v%d, read v%d (%v)", entity, version, got, err)
				}
				continue
			}
		}
		r := reqs[int(next.Add(1)-1)%len(reqs)]
		res.attempted++
		t0 := time.Now()
		code, err := post(ctx, c, http.MethodPost, url+"/query", r.text, &buf)
		res.lat = append(res.lat, time.Since(t0))
		if err != nil || code != http.StatusOK {
			res.note(false, "%s: status %d err %v", r.template, code, err)
			continue
		}
		if got, err := countBindings(buf.Bytes()); err != nil || got != r.want {
			res.note(true, "%s: %d rows, oracle says %d (%v): %s", r.template, got, r.want, err, r.text)
		}
	}
	return res
}

// Writer entities are new subjects carrying a versioned foaf:name and a
// cold dbo:viaf literal. No point request matches them, so the point
// oracle holds while they land.
func entityIRI(k int) string { return fmt.Sprintf("<bench:W%d>", k) }

func nameTriple(k, version int) string {
	return fmt.Sprintf("%s <foaf:name> \"W%d v%d\" .\n", entityIRI(k), k, version)
}

func entityQuery(k int) string {
	return fmt.Sprintf("SELECT ?n WHERE { %s <foaf:name> ?n . }", entityIRI(k))
}

// readVersion extracts the single version a read of entity k returned.
func readVersion(doc []byte, k int) (int, error) {
	var out struct {
		Results struct {
			Bindings []map[string]struct{ Value string }
		}
	}
	if err := json.Unmarshal(doc, &out); err != nil {
		return -1, err
	}
	if len(out.Results.Bindings) != 1 {
		return -1, fmt.Errorf("%d names, want exactly 1", len(out.Results.Bindings))
	}
	var gotK, v int
	if _, err := fmt.Sscanf(out.Results.Bindings[0]["n"].Value, "W%d v%d", &gotK, &v); err != nil || gotK != k {
		return -1, fmt.Errorf("unexpected name %q", out.Results.Bindings[0]["n"].Value)
	}
	return v, nil
}

// Write mix: each batch carries batchEntities entities. Every
// overwriteEvery-th batch is a PUT that moves batchEntities existing
// entities to their next name version; the rest insert new entities.
const (
	batchEntities  = 25
	overwriteEvery = 4
)

// writeState is the writer's model of what the store must hold: the
// acknowledged name version of every entity it created.
type writeState struct {
	rng      *rand.Rand
	versions []int // by entity number
}

func newWriteState(seed uint64) *writeState {
	return &writeState{rng: rand.New(rand.NewPCG(seed, 0x7772697465))}
}

// batch is one update: an insert, or with put an atomic overwrite of
// del by ins. sets lists the (entity, version) pairs it acknowledges.
type batch struct {
	put      bool
	del, ins string
	sets     [][2]int
}

// body is the batch as an /update request body.
func (b batch) body() string {
	if b.put {
		return b.del + "---\n" + b.ins
	}
	return b.ins
}

// nextBatch builds batch i from the acknowledged state.
func (w *writeState) nextBatch(i int) batch {
	var bt batch
	var del, ins strings.Builder
	if i%overwriteEvery == overwriteEvery-1 && len(w.versions) >= 4*batchEntities {
		bt.put = true
		seen := make(map[int]bool, batchEntities)
		for len(bt.sets) < batchEntities {
			k := w.rng.IntN(len(w.versions))
			if seen[k] {
				continue
			}
			seen[k] = true
			v := w.versions[k]
			del.WriteString(nameTriple(k, v))
			ins.WriteString(nameTriple(k, v+1))
			bt.sets = append(bt.sets, [2]int{k, v + 1})
		}
	} else {
		for j := 0; j < batchEntities; j++ {
			k := len(w.versions) + j
			ins.WriteString(nameTriple(k, 0))
			fmt.Fprintf(&ins, "%s <dbo:viaf> \"w%d\" .\n", entityIRI(k), k)
			bt.sets = append(bt.sets, [2]int{k, 0})
		}
	}
	bt.del, bt.ins = del.String(), ins.String()
	return bt
}

func (w *writeState) apply(sets [][2]int) {
	for _, s := range sets {
		for s[0] >= len(w.versions) {
			w.versions = append(w.versions, 0)
		}
		w.versions[s[0]] = s[1]
	}
}

// writerResult is the open-loop writer's record.
type writerResult struct {
	tally
	lat       []time.Duration // ack time minus scheduled send time
	late      []time.Duration // actual send time minus scheduled send time
	bodyBytes int64
	deltaMax  int
}

func (w *writerResult) add(o *writerResult) {
	w.tally.add(o.tally)
	w.lat = append(w.lat, o.lat...)
	w.late = append(w.late, o.late...)
	w.bodyBytes += o.bodyBytes
	w.deltaMax = max(w.deltaMax, o.deltaMax)
}

// runWriter sends writeRate batches per second from start until stop.
// Each batch is timed from its scheduled send time, so a stall is
// charged to every batch it delays.
func runWriter(url string, w *writeState, start, stop time.Time, acked *ackedKey) writerResult {
	c := newClient()
	defer c.CloseIdleConnections()
	var res writerResult
	var buf bytes.Buffer
	period := time.Second / writeRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(stop) {
			return res
		}
		time.Sleep(time.Until(due))
		bt := w.nextBatch(i)
		method, body := http.MethodPost, bt.body()
		if bt.put {
			method = http.MethodPut
		}
		res.attempted++
		res.late = append(res.late, time.Since(due))
		code, err := post(context.Background(), c, method, url+"/update", body, &buf)
		res.lat = append(res.lat, time.Since(due))
		if err != nil || code != http.StatusOK {
			res.note(false, "%s /update: status %d err %v: %s", method, code, err, strings.TrimSpace(buf.String()))
			continue
		}
		var ack struct {
			DeltaTriples int `json:"delta_triples"`
		}
		if err := json.Unmarshal(buf.Bytes(), &ack); err != nil {
			res.note(true, "/update ack: %v", err)
			continue
		}
		res.deltaMax = max(res.deltaMax, ack.DeltaTriples)
		res.bodyBytes += int64(len(body))
		w.apply(bt.sets)
		last := bt.sets[len(bt.sets)-1]
		acked.set(last[0], last[1])
	}
}
