package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// timed run spawns its replay processes (spawnReplica re-executes
// os.Executable with --replica).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--replica" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tiny is the workload scale the tests run at.
const tiny = "0.02"

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runBench runs the benchmark in-process and returns its output lines and
// the parsed final result.
func runBench(t *testing.T, args ...string) ([]string, result) {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct {
		t.Fatalf("run %v reported incorrect outputs:\n%s", args, out.String())
	}
	return lines, res
}

// fingerprint returns the manifest's fingerprint.
func fingerprint(t *testing.T, lines []string) string {
	t.Helper()
	for _, l := range lines {
		if js, ok := strings.CutPrefix(l, "manifest "); ok {
			var m manifest
			if err := json.Unmarshal([]byte(js), &m); err != nil {
				t.Fatal(err)
			}
			return m.Fingerprint
		}
	}
	t.Fatal("no manifest line")
	return ""
}

// checkMetrics verifies that every metric of the list is printed by name
// with its unit, both as a text line and in the result.
func checkMetrics(t *testing.T, lines []string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	printed := map[string]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: result has %+v, want unit %q", m.Name, got, m.Unit)
		}
		if u := printed[m.Name]; u != m.Unit {
			t.Errorf("metric %s is printed with unit %q, want %q", m.Name, u, m.Unit)
		}
	}
}

func TestEndToEndMetricsAndFingerprints(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			args := []string{"--workload", w, "--seed", "3", "--seconds", "0", "--scale", tiny}
			lines, res := runBench(t, args...)
			checkMetrics(t, lines, res, bf.EndToEnd)
			if res.Attempted < 3 || res.Failed != 0 {
				t.Errorf("%d of %d replays failed, want 0 of at least 3", res.Failed, res.Attempted)
			}
			for _, m := range res.Metrics {
				if m.Value <= 0 || math.IsNaN(m.Value) {
					t.Errorf("metric value %v is not positive", m.Value)
				}
			}
			// The fingerprint repeats across processes and runs; the
			// in-run checks (replays, shard parity) passed since the
			// result is correct.
			lines2, _ := runBench(t, args...)
			if a, b := fingerprint(t, lines), fingerprint(t, lines2); a != b {
				t.Errorf("fingerprint %s != %s on a repeated run", a, b)
			}
		})
	}
}

func TestTracedReport(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			lines, res := runBench(t, "--workload", w, "--seed", "3", "--trace", "1", "--scale", "0.05")
			checkMetrics(t, lines, res, bf.PerLayer)
			if res.Attempted < 2 || res.Failed != 0 {
				t.Errorf("%d of %d replays failed, want 0 of at least 2", res.Failed, res.Attempted)
			}
			// Self-time shares plus GC workers cover every profile sample.
			sum := res.Metrics["runtime.gc_pct"].Value
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, ".self_pct") {
					sum += m.Value
				}
			}
			if math.Abs(sum-100) > 1e-6 {
				t.Errorf("self-time shares sum to %v, want 100", sum)
			}
			if b := res.Metrics["simnet.pool_balance"].Value; b != 0 {
				t.Errorf("packet pool balance %v, want 0", b)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"transparentedge/internal/sim.(*Kernel).Run":               "sim",
		"transparentedge/internal/simnet.(*Port).Send":             "simnet",
		"transparentedge/internal/obs/attrib.(*Collector).Observe": "obs",
		"transparentedge/internal/workload.replayEvents.func1":     "workload",
		"transparentedge/internal/newpkg.F":                        "other",
		"main.(*timedScheduler).Choose":                            "bench",
		"runtime.mallocgc":                                         "",
		"sort.Slice":                                               "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "warm-site", "--trace", "2"},
		{"--workload", "warm-site", "--scale", "0"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run %v: want an error", args)
		}
	}
}
