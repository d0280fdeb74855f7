// Command perfbench is the repository's benchmark. It replays one of three
// workloads against the simulator from a seed, times the calls into the
// program from outside (set-up, then the replay), checks that the
// simulated outputs are correct, and prints every metric by name and unit.
// With --trace 1 it instead makes a profiled, traced run and prints the
// per-layer report. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload warm-site --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported quantity; the names and units match BENCHMARK.json.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"req_per_s", "req/s"},
	{"cpu_us_per_req", "us"},
	{"allocs_per_req", "allocs"},
	{"bytes_per_req", "B"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"served_frac", "ratio"},
}

// perLayer lists the traced report; self-time shares are appended from
// layers in init.
var perLayer = []metric{
	{"runtime.gc_pct", "%"},
	{"sim.events_per_req", "events/req"},
	{"sim.ns_per_event", "ns"},
	{"sim.wheel_cascades_per_req", "cascades/req"},
	{"sim.near_high_water", "count"},
	{"sim.windows_per_kreq", "windows/kreq"},
	{"sim.cross_shard_msgs_per_req", "msgs/req"},
	{"sim.barrier_stall_wall_pct", "%"},
	{"simnet.packets_per_req", "packets/req"},
	{"simnet.drops_per_kreq", "drops/kreq"},
	{"simnet.pool_balance", "count"},
	{"openflow.packet_ins_per_req", "packet_ins/req"},
	{"openflow.rules_peak", "count"},
	{"steer.flow_mods_per_req", "flow_mods/req"},
	{"srsteer.encaps_per_req", "encaps/req"},
	{"core.memory_hit_ratio", "ratio"},
	{"core.deploys_per_kreq", "deploys/kreq"},
	{"core.sched_calls_per_kreq", "calls/kreq"},
	{"core.sched_ns_per_call", "ns"},
	{"core.handover_us_per_call", "us"},
	{"cluster.scale_ups_per_kreq", "ops/kreq"},
	{"cluster.scale_downs_per_kreq", "ops/kreq"},
	{"cluster.deploy_retries", "count"},
	{"workload.inflight_peak", "count"},
	{"virt.queueing_pct", "%"},
	{"virt.network_pct", "%"},
	{"virt.state_query_pct", "%"},
	{"virt.schedule_pct", "%"},
	{"virt.pull_pct", "%"},
	{"virt.create_pct", "%"},
	{"virt.scale_up_pct", "%"},
	{"virt.probe_pct", "%"},
	{"virt.flow_install_pct", "%"},
	{"virt.reanchor_pct", "%"},
	{"virt.cloud_forward_pct", "%"},
	{"virt.other_pct", "%"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.spans_per_req", "spans/req"},
}

func init() {
	for _, l := range layers {
		perLayer = append(perLayer, metric{l + ".self_pct", "%"})
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the workload (1 = as defined); see params.scaled.
	scale float64
	// replica selects the child mode of a timed run (see spawnReplica).
	replica bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measure for this long (at least two timed replays)")
	fs.IntVar(&trace, "trace", 0, "1 = traced, profiled run printing the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "shrink requests and trace window by this factor (quick checks)")
	fs.BoolVar(&o.replica, "replica", false, "make one timed replay and print its JSON record (the runner's child mode)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if o.scale <= 0 || o.scale > 1 {
		return o, fmt.Errorf("--scale must be in (0, 1], not %v", o.scale)
	}
	o.trace = trace == 1
	return o, nil
}

// sample is the host cost of one set-up and replay.
type sample struct {
	setup, wall, cpu time.Duration
	mallocs, bytes   uint64
}

// iterate sets a scenario up and replays it once, timing both. With prof
// set, a CPU profile covers exactly the replay call.
func iterate(p params, seed int64, shards int, in instruments, prof io.Writer) (*scenario, sample, error) {
	var s sample
	runtime.GC()
	start := time.Now()
	sc, err := setup(p, seed, shards, in)
	s.setup = time.Since(start)
	if err != nil {
		return nil, s, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, s, err
		}
	}
	start = time.Now()
	err = sc.replay()
	s.wall = time.Since(start)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	return sc, s, err
}

// rusage reads this process's resource usage. Getrusage fails only on a
// bad argument, so its error is not checked.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in MiB (Linux reports KiB).
func peakRSS() float64 { return float64(rusage().Maxrss) / 1024 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report collects what a run prints: checks, the manifest and metrics.
type report struct {
	w         io.Writer
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

func (r *report) check(name string, ok bool, detail string) {
	status := "ok"
	if !ok {
		status = "FAIL"
		r.correct = false
	}
	fmt.Fprintf(r.w, "check %-20s %s %s\n", name, status, detail)
}

// checkAccounting reports the arrival accounting of the run's replays;
// problems is their concatenated counts.Accounting.
func (r *report) checkAccounting(c counts, problems string) {
	detail := fmt.Sprintf("arrivals %d = completed %d + errors %d + lost %d",
		c.Arrivals, c.Completed, c.Errors, c.Lost)
	if problems != "" {
		detail = problems
	}
	r.check("arrival_accounting", problems == "", detail)
}

// count records one replay as an operation of the result. The replay fails
// when its outcome breaks the arrival accounting or its fingerprint differs
// from want, the run's reference. Simulated request failures (errors, lost
// arrivals) are part of the program's deterministic output, not failures of
// the replay: they are checked by the fingerprint and reported in
// failed_frac and served_frac.
func (r *report) count(c counts, fingerprint, want string) {
	r.attempted++
	if c.Accounting != "" || fingerprint != want {
		r.failed++
	}
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints each metric of the list, then the one-line JSON result.
func (r *report) finish(list []metric) error {
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(r.w, "metric %-32s %16.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.w, "%s\n", line)
	return err
}

type manifest struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Traced      bool    `json:"traced"`
	Seconds     float64 `json:"seconds"`
	Scale       float64 `json:"scale"`
	Revision    string  `json:"vcs_revision"`
	Modified    string  `json:"vcs_modified"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Params      params  `json:"params"`
	Timed       int     `json:"timed_replays"`
	Fingerprint string  `json:"fingerprint"`
}

func newManifest(o options, p params) manifest {
	m := manifest{Workload: o.workload, Seed: o.seed, Traced: o.trace, Seconds: o.seconds,
		Scale: o.scale, Revision: "unknown", Modified: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Params: p}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

func run(args []string, w io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	p := workloads[o.workload].scaled(o.scale)
	if o.replica {
		return runReplica(o, p, w)
	}
	rep := &report{w: w, correct: true, metrics: map[string]float64{}}
	man := newManifest(o, p)

	var fp string
	if o.trace {
		fp, err = runTraced(o, p, rep)
	} else {
		fp, man.Timed, err = runTimed(o, rep)
	}
	if err != nil {
		return err
	}
	if p.Regions > 0 {
		// Shard parity: the serial run must reproduce the sharded outputs.
		sc, _, err := iterate(p, o.seed, 1, instruments{}, nil)
		if err != nil {
			return err
		}
		so := sc.outcome()
		serial := so.Fingerprint()
		rep.count(so.counts, serial, fp)
		rep.check("shard_parity", serial == fp, fmt.Sprintf("shards=%d %s shards=1 %s", p.Shards, fp, serial))
	}
	man.Fingerprint = fp
	js, err := json.Marshal(man)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "manifest %s\n", js)
	if o.trace {
		return rep.finish(perLayer)
	}
	return rep.finish(endToEnd)
}

// replica is what one timed replay reports: its host costs and a summary
// of its simulated outcome.
type replica struct {
	counts
	SetupS      float64 `json:"setup_s"`
	WallS       float64 `json:"wall_s"`
	CPUS        float64 `json:"cpu_s"`
	Mallocs     uint64  `json:"mallocs"`
	Bytes       uint64  `json:"bytes"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	Fingerprint string  `json:"fingerprint"`
	MeanMS      float64 `json:"mean_ms"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
}

// runReplica makes one timed replay in this process and prints its record.
func runReplica(o options, p params, w io.Writer) error {
	sc, s, err := iterate(p, o.seed, p.Shards, instruments{}, nil)
	if err != nil {
		return err
	}
	out := sc.outcome()
	lat := out.Totals
	js, err := json.Marshal(replica{counts: out.counts,
		SetupS: s.setup.Seconds(), WallS: s.wall.Seconds(), CPUS: s.cpu.Seconds(),
		Mallocs: s.mallocs, Bytes: s.bytes, PeakRSSMB: peakRSS(), Fingerprint: out.Fingerprint(),
		MeanMS: ms(lat.Mean()), P50MS: ms(lat.Median()), P99MS: ms(lat.Percentile(99)),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", js)
	return err
}

// spawnReplica runs one timed replay in a child process of this program and
// waits for it. A fresh process per replay makes every replay start from
// the same state: the simulator leaves processes parked at the end of a run
// (cold-churn's cluster controllers, for one), which would otherwise pile up
// in the heap and grow the peak resident set with every replay.
func spawnReplica(o options) (replica, error) {
	var r replica
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, "--replica", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("replica: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("replica output: %w", err)
	}
	return r, nil
}

// runTimed replays the workload repeatedly for the time budget, each replay
// in its own process, and reports the medians of the end-to-end metrics.
// The first replay only warms the machine up: it is checked, not measured.
// At least two replays are measured.
func runTimed(o options, rep *report) (string, int, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	first, err := spawnReplica(o)
	if err != nil {
		return "", 0, err
	}
	repeat, acct := true, first.Accounting
	rep.count(first.counts, first.Fingerprint, first.Fingerprint)
	cols := map[string][]float64{}
	n := 0
	for ; n < 2 || time.Since(start) < budget; n++ {
		r, err := spawnReplica(o)
		if err != nil {
			return "", n, err
		}
		repeat = repeat && r.Fingerprint == first.Fingerprint
		acct += r.Accounting
		rep.count(r.counts, r.Fingerprint, first.Fingerprint)
		req := float64(r.Arrivals)
		cols["req_per_s"] = append(cols["req_per_s"], float64(r.Completed+r.Errors)/r.WallS)
		cols["cpu_us_per_req"] = append(cols["cpu_us_per_req"], 1e6*r.CPUS/req)
		cols["allocs_per_req"] = append(cols["allocs_per_req"], float64(r.Mallocs)/req)
		cols["bytes_per_req"] = append(cols["bytes_per_req"], float64(r.Bytes)/req)
		cols["peak_rss_mb"] = append(cols["peak_rss_mb"], r.PeakRSSMB)
		cols["setup_s"] = append(cols["setup_s"], r.SetupS)
		fmt.Fprintf(rep.w, "info replay %d: setup %.4fs replay %.4fs peak rss %.1f MiB\n", n, r.SetupS, r.WallS, r.PeakRSSMB)
	}
	for k, v := range cols {
		rep.metrics[k] = median(v)
	}
	rep.metrics["served_frac"] = float64(first.Completed) / float64(first.Arrivals)
	rep.check("fingerprint_repeat", repeat, fmt.Sprintf("%d replays, fingerprint %s", n+1, first.Fingerprint))
	rep.checkAccounting(first.counts, acct)
	// Printed, not gated (README.md): failed_frac is 0 on most seeds, the
	// simulated percentiles sit on the model's deterministic per-path
	// latencies, and the simulated mean moves with the seed by more than a
	// useful bound.
	fmt.Fprintf(rep.w, "info %-32s %16.6g ratio (errors %d + lost %d of %d arrivals)\n", "failed_frac",
		float64(first.Errors+first.Lost)/float64(first.Arrivals), first.Errors, first.Lost, first.Arrivals)
	fmt.Fprintf(rep.w, "info %-32s %16.6g ms (%d samples)\n", "sim_mean_ms", first.MeanMS, first.Completed)
	fmt.Fprintf(rep.w, "info %-32s %16.6g ms (%d samples)\n", "sim_p50_ms", first.P50MS, first.Completed)
	fmt.Fprintf(rep.w, "info %-32s %16.6g ms (%d samples)\n", "sim_p99_ms", first.P99MS, first.Completed)
	fmt.Fprintf(rep.w, "info handovers %d, deployments %d\n", first.Handovers, first.Deployments)
	return first.Fingerprint, n, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runTraced makes one timed replay and one traced, profiled replay of the
// same seed, checks that they agree, and reports the per-layer metrics.
func runTraced(o options, p params, rep *report) (string, error) {
	base, bs, err := iterate(p, o.seed, p.Shards, instruments{}, nil)
	if err != nil {
		return "", err
	}
	bo := base.outcome()
	want := bo.Fingerprint()
	rep.count(bo.counts, want, want)

	tr := newTracedRun(p)
	sc, ts, err := iterate(p, o.seed, p.Shards, tr.in, &tr.cpuProf)
	if err != nil {
		return "", err
	}
	tr.wall = ts.wall
	out := sc.outcome()
	got := out.Fingerprint()
	rep.count(out.counts, got, want)
	rep.check("traced_parity", got == want, fmt.Sprintf("untraced %s traced %s", want, got))
	rep.checkAccounting(out.counts, bo.Accounting+out.Accounting)

	shares, samples, err := selfShares(tr.cpuProf.Bytes())
	if err != nil {
		return "", err
	}
	for k, v := range layerMetrics(sc, tr, shares, base, bs.wall) {
		rep.metrics[k] = v
	}
	bal := rep.metrics["simnet.pool_balance"]
	rep.check("pool_balance", bal == 0, fmt.Sprintf("gets - puts - drops = %g", bal))
	fmt.Fprintf(rep.w, "info cpu profile: %d samples over %v of replay\n", samples, ts.wall.Round(time.Millisecond))
	printShares(rep.w, shares)
	return want, nil
}

// printShares lists the layers by self time, largest first.
func printShares(w io.Writer, shares map[string]float64) {
	names := make([]string, 0, len(shares))
	for l := range shares {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	var b strings.Builder
	for _, l := range names {
		fmt.Fprintf(&b, " %s=%.1f%%", l, shares[l])
	}
	fmt.Fprintf(w, "info self time by layer:%s\n", b.String())
}
