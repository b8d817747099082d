// Command perfbench is the repository's end-to-end benchmark. It
// generates a corpus from a seed, deploys it through the public rdffrag
// API, serves it through (*rdffrag.Server).Handler() on a loopback
// listener, drives one workload over HTTP from this process, checks
// every answer against an oracle, and prints each metric by name with
// its unit and sample count. The last line of standard output is a JSON
// summary. See README.md for the workloads and how to run it.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

//go:embed metrics.json
var metricsJSON []byte

// definitions is metrics.json: every metric the benchmark prints and
// which of them the final JSON line carries.
type definitions struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Summary marks the metrics of the final JSON line: end-to-end ones
	// in untraced mode, per-layer ones in traced mode.
	Summary bool `json:"summary"`
	// Workloads is "write" for the metrics only the write workload has,
	// and "all" or empty otherwise.
	Workloads string `json:"workloads"`
}

func loadDefinitions() (*definitions, error) {
	var d definitions
	if err := json.Unmarshal(metricsJSON, &d); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &d, nil
}

// options are the command's flags.
type options struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         bool
	size          string
	workdir       string
	corruptOracle bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: point, join or write")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the corpus, requests and writes")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.StringVar(&o.size, "size", "full", "input size: full, or tiny for the self-test")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "scratch directory for data directories and spans")
	fs.BoolVar(&o.corruptOracle, "corrupt-oracle", false, "self-test: falsify one oracle answer, so the run must fail")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch {
	case o.workload != "point" && o.workload != "join" && o.workload != "write":
		return o, fmt.Errorf("unknown --workload %q (want point, join or write)", o.workload)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds must be positive")
	}
	if _, ok := sizes[o.size]; !ok {
		return o, fmt.Errorf("unknown --size %q", o.size)
	}
	return o, nil
}

// metric is one measured value.
type metric struct {
	value float64
	n     int // samples behind the value
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command and returns its exit code: 0 when every
// answer was right, 1 on a wrong answer or failed check, 2 on bad
// usage or an error before results exist.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defs, err := loadDefinitions()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out, err := rep.print(defs, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// print writes the human-readable table and returns the summary line.
func (r *report) print(defs *definitions, o options, w io.Writer) (*summary, error) {
	out := &summary{
		Correct:   r.wrong == 0 && len(r.checkErrs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed + r.wrong,
		Metrics:   map[string]summaryMetric{},
	}
	fmt.Fprintf(w, "workload %s seed %d: %d attempted, %d failed, %d wrong\n", o.workload, o.seed, r.attempted, r.failed, r.wrong)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  failure:", n)
	}
	for _, e := range r.checkErrs {
		fmt.Fprintln(w, "  check failed:", e)
	}
	section := func(title string, list []metricDef, summarize bool) error {
		fmt.Fprintln(w, title)
		for _, d := range list {
			m, ok := r.metrics[d.Name]
			if !ok {
				if summarize && d.Summary {
					return fmt.Errorf("summary metric %s was not measured", d.Name)
				}
				continue
			}
			fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%d\n", d.Name, m.value, d.Unit, m.n)
			if summarize && d.Summary {
				out.Metrics[d.Name] = summaryMetric{Value: m.value, Unit: d.Unit}
			}
		}
		return nil
	}
	if err := section("end-to-end:", defs.EndToEnd, !o.trace); err != nil {
		return nil, err
	}
	if o.trace {
		if err := section("per-layer:", defs.PerLayer, true); err != nil {
			return nil, err
		}
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), defs.EndToEnd...), defs.PerLayer...) {
		known[d.Name] = true
	}
	var unknown []string
	for name := range r.metrics {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		return nil, fmt.Errorf("metrics missing from metrics.json: %v", unknown)
	}
	return out, nil
}
