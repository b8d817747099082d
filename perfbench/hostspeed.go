package main

// Host-speed calibration. On a shared machine the speed of the host's
// cores drifts by tens of percent over minutes, with the load of other
// tenants, and it moves every timing of a run alike. The timed phase is
// therefore cut into slices; between two slices, with the load stopped
// and the program's garbage collected, both cores run a fixed kernel of
// the benchmark's own. The end-to-end timings are reported scaled by the
// host's slowdown against calRef over the run, i.e. as they would read
// on a host of the reference speed; the table prints them as measured
// too.
//
// The kernel does the kinds of work the served path does (independent
// random probes into a table far larger than the caches, rendering and
// scanning JSON-like text, sorting) and never calls the program. Its
// memory is mapped outside the Go heap and it allocates nothing, so it
// neither depends on nor changes the program's heap and GC pacing.

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calRef is the kernel's typical time on the reference host, a 2-vCPU
// cloud VM: a host that runs the kernel in calRef has slowdown 1.
const calRef = 30 * time.Millisecond

const (
	calWorkers   = 2       // one per core of the reference host
	calTableLen  = 1 << 22 // 32 MiB of uint64, shared by the workers
	calProbes    = 1 << 20 // random probes per worker
	calSortLen   = 1 << 16 // values sorted per worker
	calRows      = 12000   // JSON-like rows (under 128 bytes each) per worker
	calWorkerLen = calSortLen*2 + calRows*16
)

// calKernel is the calibration's state, in memory mapped outside the
// Go heap.
type calKernel struct {
	mem     []byte
	table   []uint64
	workers []calWorker
}

type calWorker struct {
	keys, sorted []uint64
	text         []byte
}

func newCalKernel() (*calKernel, error) {
	size := calTableLen*8 + calWorkers*calWorkerLen*8
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration memory: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), size/8)
	k := &calKernel{mem: mem, table: words[:calTableLen:calTableLen]}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.table {
		x = x*6364136223846793005 + 1442695040888963407
		k.table[i] = x
	}
	rest := words[calTableLen:]
	for w := 0; w < calWorkers; w++ {
		ws := rest[w*calWorkerLen : (w+1)*calWorkerLen]
		cw := calWorker{
			keys:   ws[:calSortLen:calSortLen],
			sorted: ws[calSortLen : 2*calSortLen : 2*calSortLen],
		}
		text := ws[2*calSortLen:]
		cw.text = unsafe.Slice((*byte)(unsafe.Pointer(&text[0])), len(text)*8)[:0]
		for i := range cw.keys {
			x = x*6364136223846793005 + 1442695040888963407
			cw.keys[i] = x
		}
		k.workers = append(k.workers, cw)
	}
	return k, nil
}

func (k *calKernel) close() { syscall.Munmap(k.mem) }

// sink keeps the kernel's results alive.
var calSink [calWorkers]uint64

// run collects the program's garbage, then times one pass of the kernel
// on every worker at once.
func (k *calKernel) run() time.Duration {
	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	for w := range k.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			calSink[w] += k.pass(&k.workers[w], uint64(w)+1)
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

func (k *calKernel) pass(cw *calWorker, seed uint64) uint64 {
	var sum uint64
	mask := uint64(len(k.table) - 1)
	x := seed
	for i := 0; i < calProbes; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += k.table[(x>>20)&mask]
	}
	copy(cw.sorted, cw.keys)
	slices.Sort(cw.sorted)
	sum += cw.sorted[len(cw.sorted)/2]
	t := cw.text[:0]
	for i := 0; i < calRows; i++ {
		t = append(t, `{"x":{"type":"uri","value":"http://example.org/entity/`...)
		t = strconv.AppendUint(t, k.table[i]%100003, 10)
		t = append(t, `"},"n":{"type":"literal","value":`...)
		t = strconv.AppendQuote(t, "name of the thing")
		t = append(t, "}},\n"...)
	}
	quotes := 0
	for _, c := range t {
		if c == '"' {
			quotes++
		}
	}
	return sum + uint64(quotes)
}

// slowdown is calRef's share of the kernel's mean speed over cal: the
// kernel's time on this host relative to the reference, averaged as
// throughput averages over a run that slowed and sped up.
func slowdown(cal []time.Duration) float64 {
	var speed float64
	for _, d := range cal {
		speed += float64(calRef) / float64(d)
	}
	return float64(len(cal)) / speed
}
