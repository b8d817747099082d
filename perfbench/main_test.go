package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// runTiny runs the command at the self-test size and returns its exit
// code, its table lines and its summary line.
func runTiny(t *testing.T, extra ...string) (int, string, summary) {
	t.Helper()
	args := append([]string{"--size", "tiny", "--seconds", "1", "--workdir", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), sum
}

// TestEveryMetricPrints runs each workload untraced and traced at the
// self-test size: every metric that applies prints with its unit and
// sample count, and the summary line carries exactly the summary set.
func TestEveryMetricPrints(t *testing.T) {
	defs, err := loadDefinitions()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"point", "join", "write"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				code, out, sum := runTiny(t, "--workload", wl, "--seed", "3", "--trace", trace)
				if code != 0 || !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("exit %d, summary %+v\n%s", code, sum, out)
				}
				list := defs.EndToEnd
				if trace == "1" {
					list = append(append([]metricDef(nil), list...), defs.PerLayer...)
				}
				for _, d := range list {
					if d.Workloads != "all" && d.Workloads != "" && d.Workloads != wl {
						continue
					}
					line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.Name) + ` +\S+ ` + regexp.QuoteMeta(d.Unit) + ` +n=\d+$`)
					if !line.MatchString(out) {
						t.Errorf("%s: no line with its unit %q and sample count", d.Name, d.Unit)
					}
				}
				want := defs.EndToEnd
				if trace == "1" {
					want = defs.PerLayer
				}
				n := 0
				for _, d := range want {
					if !d.Summary {
						continue
					}
					n++
					if m, ok := sum.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("summary lacks %s in %s: %+v", d.Name, d.Unit, m)
					}
				}
				if len(sum.Metrics) != n {
					t.Errorf("summary has %d metrics, want %d", len(sum.Metrics), n)
				}
				if trace == "1" && !strings.Contains(out, "tracing overhead:") || trace == "1" && !strings.Contains(out, "reconciliation: ") || strings.Contains(out, "FAILED") {
					t.Errorf("traced run lacks the overhead or a passing reconciliation:\n%s", out)
				}
			})
		}
	}
}

// TestCorruptOracleFails falsifies one oracle answer: the run must
// report the wrong answer and exit non-zero.
func TestCorruptOracleFails(t *testing.T) {
	code, out, sum := runTiny(t, "--workload", "point", "--seed", "3", "--corrupt-oracle")
	if code == 0 || sum.Correct || sum.Failed == 0 {
		t.Fatalf("corrupted oracle passed: exit %d, summary %+v\n%s", code, sum, out)
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and
// metrics.json in step: the same summary metrics, units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	defs, err := loadDefinitions()
	if err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got, all []metricDef) {
		var want []metricDef
		for _, d := range all {
			if d.Summary {
				want = append(want, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
			}
		}
		var have []metricDef
		for _, d := range got {
			have = append(have, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
		}
		if len(have) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.json marks %d", kind, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.json %+v", kind, i, have[i], want[i])
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, defs.EndToEnd)
	compare("per_layer", bj.PerLayer, defs.PerLayer)
}

func TestCountBindings(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		want int
	}{
		{`{"head":{"vars":["bindings"]},"results":{"bindings":[]}}`, 0},
		{`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"a}\"{"}},{}]}}`, 2},
		{"{\n  \"head\": {\"vars\": [\"bindings\"]},\n  \"results\": {\n    \"bindings\" : [\n      {\"bindings\": {\"type\": \"uri\", \"value\": \"x\"}}\n    ]\n  }\n}\n", 1},
	} {
		if got, err := countBindings([]byte(tc.doc)); err != nil || got != tc.want {
			t.Errorf("countBindings(%s) = %d, %v; want %d", tc.doc, got, err, tc.want)
		}
	}
	if _, err := countBindings([]byte(`{"results":{"bindings":[{}`)); err == nil {
		t.Error("truncated document counted")
	}
}

// TestCalibrationAllocatesNothing: the host-speed kernel must not
// allocate, or its time would depend on the program's heap through the
// garbage collector, and the scaling of the gated timings with it.
func TestCalibrationAllocatesNothing(t *testing.T) {
	k, err := newCalKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	if n := testing.AllocsPerRun(3, func() { k.pass(&k.workers[0], 1) }); n != 0 {
		t.Fatalf("calibration pass allocates %.0f times", n)
	}
	if got := slowdown([]time.Duration{calRef / 2, calRef * 2}); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("slowdown of a half-time and a double-time calibration = %g, want 0.8 (throughput mean)", got)
	}
}
