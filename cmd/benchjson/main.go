// Command benchjson turns `go test -bench -benchmem` output into the
// repository's benchmark-trajectory JSON. It reads bench output on stdin
// and writes a JSON document holding two measurement sets: "baseline"
// (the first numbers ever recorded in the output file, preserved across
// reruns) and "current" (this run), plus the ns/op speedup of current
// over baseline per benchmark.
//
// With -prev BENCH_N.json -max-regress 0.20 it also gates on the
// previous committed trajectory file: if any benchmark's current ns/op
// is more than the fraction slower than the previous file's current
// section, benchjson exits nonzero (the CI perf gate). Sections this
// tool no longer writes (such as older files' "parallel" GOMAXPROCS
// record) are ignored on read.
//
// Usage:
//
//	go test -run '^$' -bench <pat> -benchmem <pkgs> | benchjson -pr 3 -out BENCH_3.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one benchmark's numbers from a single run.
type Measurement struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the trajectory document committed as BENCH_<pr>.json.
type File struct {
	PR       int                    `json:"pr"`
	Note     string                 `json:"note,omitempty"`
	Baseline map[string]Measurement `json:"baseline"`
	Current  map[string]Measurement `json:"current"`
	// SpeedupNsPerOp is baseline/current per benchmark present in both.
	SpeedupNsPerOp map[string]float64 `json:"speedup_ns_per_op"`
}

func main() {
	pr := flag.Int("pr", 0, "PR number recorded in the document")
	out := flag.String("out", "", "output file; its existing baseline section is preserved (required)")
	note := flag.String("note", "", "free-form note stored in the document")
	require := flag.String("require", "", "comma-separated benchmark names that must be present on stdin")
	prev := flag.String("prev", "", "previous trajectory file to gate against (compares current ns/op sections)")
	maxRegress := flag.Float64("max-regress", 0.20, "with -prev: maximum tolerated ns/op regression as a fraction")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out is required")
		os.Exit(2)
	}

	current, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			if _, ok := current[strings.TrimSpace(name)]; !ok {
				fmt.Fprintf(os.Stderr, "benchjson: required benchmark %q missing from input (crashed mid-suite?)\n", name)
				os.Exit(1)
			}
		}
	}

	doc := &File{PR: *pr, Current: current}
	if _, statErr := os.Stat(*out); statErr == nil {
		// The output file exists: its baseline section is the recorded
		// pre-optimization numbers and must survive. A present-but-
		// unparseable file is a hard error — silently reseeding the
		// baseline from current would erase the recorded history.
		prev, err := readFile(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is unreadable (%v); refusing to reseed its baseline\n", *out, err)
			os.Exit(1)
		}
		if len(prev.Baseline) > 0 {
			doc.Baseline = prev.Baseline
			if *note == "" {
				doc.Note = prev.Note
			}
		} else {
			doc.Baseline = current
		}
	} else {
		doc.Baseline = current // first run seeds the baseline
	}
	if *note != "" {
		doc.Note = *note
	}
	doc.SpeedupNsPerOp = make(map[string]float64)
	for name, cur := range doc.Current {
		if base, ok := doc.Baseline[name]; ok && cur.NsPerOp > 0 {
			doc.SpeedupNsPerOp[name] = round2(base.NsPerOp / cur.NsPerOp)
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(current), *out)

	// The regression gate runs last so the trajectory point is recorded
	// even when the gate fails — the artifact shows what regressed.
	if *prev != "" {
		if err := gate(current, *prev, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// gate compares current against the previous trajectory file's current
// section and errors when any shared benchmark's ns/op regressed by more
// than the tolerated fraction.
func gate(current map[string]Measurement, prevPath string, maxRegress float64) error {
	prev, err := readFile(prevPath)
	if err != nil {
		return fmt.Errorf("reading -prev %s: %w", prevPath, err)
	}
	var offenders []string
	for name, p := range prev.Current {
		c, ok := current[name]
		if !ok || p.NsPerOp <= 0 {
			continue
		}
		if c.NsPerOp > p.NsPerOp*(1+maxRegress) {
			offenders = append(offenders,
				fmt.Sprintf("%s: %.0f ns/op vs %.0f in %s (%.0f%% slower, tolerance %.0f%%)",
					name, c.NsPerOp, p.NsPerOp, prevPath,
					100*(c.NsPerOp/p.NsPerOp-1), 100*maxRegress))
		}
	}
	if len(offenders) > 0 {
		sort.Strings(offenders)
		return fmt.Errorf("benchmark regression gate failed:\n  %s", strings.Join(offenders, "\n  "))
	}
	fmt.Printf("benchjson: regression gate passed against %s (tolerance %.0f%%)\n", prevPath, 100*maxRegress)
	return nil
}

func readFile(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// parseBench extracts benchmark result lines, e.g.
//
//	BenchmarkHashJoin-8   1794   668184 ns/op   500243 B/op   4032 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped from names. A benchmark
// appearing several times (e.g. -count > 1) keeps its last measurement.
func parseBench(r io.Reader) (map[string]Measurement, error) {
	out := make(map[string]Measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		m := Measurement{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v := fields[i]
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp, _ = strconv.ParseFloat(v, 64)
			case "B/op":
				m.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				m.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		out[name] = m
	}
	return out, sc.Err()
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}
