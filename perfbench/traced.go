package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"transparentedge/internal/core"
	"transparentedge/internal/obs"
	"transparentedge/internal/obs/attrib"
	"transparentedge/internal/workload"
)

// timedScheduler decorates the controller's injected Global Scheduler,
// counting and timing Choose calls. Single-site only: testbed.Regions
// builds its controllers' schedulers itself.
type timedScheduler struct {
	core.GlobalScheduler
	calls uint64
	ns    int64
}

func (s *timedScheduler) Choose(st core.State) core.Choice {
	t := time.Now()
	c := s.GlobalScheduler.Choose(st)
	s.ns += time.Since(t).Nanoseconds()
	s.calls++
	return c
}

// timedHandover decorates the benchmark-supplied ApplyHandover. Sharded
// replays call it from every shard worker, hence the atomics.
type timedHandover struct {
	calls, ns atomic.Int64
}

// wrap returns f timed, or f itself on a nil receiver (untraced runs).
func (t *timedHandover) wrap(f func(workload.Handover)) func(workload.Handover) {
	if t == nil {
		return f
	}
	return func(h workload.Handover) {
		start := time.Now()
		f(h)
		t.ns.Add(time.Since(start).Nanoseconds())
		t.calls.Add(1)
	}
}

// spanStream is one tracer's sink: spans feed an attribution collector, the
// same tee the experiments' attribution option uses. Each region owns one,
// so shard workers never share a collector.
type spanStream struct {
	col       *attrib.Collector
	spans     uint64
	schedules uint64
}

func (s *spanStream) observe(sp obs.Span) {
	s.spans++
	if sp.Name == "schedule" {
		s.schedules++
	}
	s.col.Observe(sp)
}

// tracedRun holds the instruments of one traced replay and what it measured.
type tracedRun struct {
	in      instruments
	streams []*spanStream
	cpuProf bytes.Buffer
	wall    time.Duration
}

func newTracedRun(p params) *tracedRun {
	n := 1
	if p.Regions > 0 {
		n = p.Regions
	}
	tr := &tracedRun{streams: make([]*spanStream, n)}
	for i := range tr.streams {
		tr.streams[i] = &spanStream{col: attrib.New(attrib.Options{})}
	}
	tr.in = instruments{
		traced:   true,
		handover: &timedHandover{},
		sink:     func(d int) func(obs.Span) { return tr.streams[d].observe },
	}
	if p.Regions == 0 {
		// A one-span ring: the sink sees every span, the ring keeps none.
		tr.in.tracer = obs.NewTracer(1)
		tr.in.tracer.SetSink(tr.streams[0].observe)
		tr.in.reg = obs.NewRegistry()
		tr.in.sched = &timedScheduler{}
	}
	return tr
}

// layerMetrics derives the per-layer report. untraced is a timed run of the
// same seed in the same process: host costs per event and the tracing
// overhead are taken against it, never against the traced run.
func layerMetrics(sc *scenario, tr *tracedRun, shares map[string]float64,
	untraced *scenario, untracedWall time.Duration) map[string]float64 {
	m := map[string]float64{}
	n := float64(sc.arrivals)
	perReq := func(v float64) float64 { return v / n }
	perK := func(v float64) float64 { return 1000 * v / n }

	for _, l := range layers {
		m[l+".self_pct"] = shares[l]
	}
	m["runtime.gc_pct"] = shares["gc"]

	// Counters summed over every registry of the run.
	regs := append([]*obs.Registry{}, sc.regs...)
	if sc.cloudReg != nil {
		regs = append(regs, sc.cloudReg)
	}
	sum := func(match func(name string) bool) float64 {
		var s float64
		for _, r := range regs {
			for name, v := range r.Map() {
				if match(name) {
					s += v
				}
			}
		}
		return s
	}
	counter := func(name string) float64 { return sum(func(s string) bool { return s == name }) }
	clusterOp := func(op string) float64 {
		return sum(func(s string) bool {
			return strings.HasPrefix(s, "cluster_ops_total{") && strings.HasSuffix(s, `op="`+op+`"}`)
		})
	}

	// sim
	var events, cascades uint64
	nearHigh := 0
	for _, k := range untraced.kernels() {
		events += k.Events
	}
	for _, k := range sc.kernels() {
		cascades += k.WheelCascades
		nearHigh = max(nearHigh, k.NearHighWater)
	}
	m["sim.events_per_req"] = perReq(float64(events))
	m["sim.ns_per_event"] = float64(untracedWall.Nanoseconds()) / float64(events)
	m["sim.wheel_cascades_per_req"] = perReq(float64(cascades))
	m["sim.near_high_water"] = float64(nearHigh)
	if sc.rs != nil {
		g := sc.rs.Group.Stats()
		var sent uint64
		var stall time.Duration
		for _, s := range g.Shards {
			sent += s.SentMessages
			stall += s.BarrierStallWall
		}
		m["sim.windows_per_kreq"] = perK(float64(g.Windows))
		m["sim.cross_shard_msgs_per_req"] = perReq(float64(sent))
		m["sim.barrier_stall_wall_pct"] = 100 * float64(stall) / float64(tr.wall*time.Duration(len(g.Shards)))
	} else {
		m["sim.windows_per_kreq"] = 0
		m["sim.cross_shard_msgs_per_req"] = 0
		m["sim.barrier_stall_wall_pct"] = 0
	}

	// simnet
	gets := counter("simnet_packet_pool_gets_total")
	drops := counter("simnet_packet_drops_total")
	m["simnet.packets_per_req"] = perReq(gets)
	m["simnet.drops_per_kreq"] = perK(drops)
	m["simnet.pool_balance"] = gets - counter("simnet_packet_pool_puts_total") - drops

	// openflow and steering
	var packetIns uint64
	for _, sw := range untraced.switches() {
		packetIns += sw.PacketsIn
	}
	rulesPeak := 0
	for _, sw := range sc.switches() {
		rulesPeak = max(rulesPeak, sw.RuleHighWater)
	}
	m["openflow.packet_ins_per_req"] = perReq(float64(packetIns))
	m["openflow.rules_peak"] = float64(rulesPeak)
	var flowMods, deploys, retries uint64
	for _, c := range sc.controllers() {
		flowMods += c.SteerStats().FlowMods
		retries += c.Stats.DeployRetries
	}
	for _, c := range untraced.controllers() {
		deploys += c.Stats.Deployments
	}
	m["steer.flow_mods_per_req"] = perReq(float64(flowMods))
	m["srsteer.encaps_per_req"] = perReq(counter("steer_encap_total"))

	// core
	hits, misses := counter("flowmemory_hits_total"), counter("flowmemory_misses_total")
	m["core.memory_hit_ratio"] = 0
	if hits+misses > 0 {
		m["core.memory_hit_ratio"] = hits / (hits + misses)
	}
	m["core.deploys_per_kreq"] = perK(float64(deploys))
	var schedules, spans uint64
	for _, s := range tr.streams {
		schedules += s.schedules
		spans += s.spans
	}
	m["core.sched_calls_per_kreq"] = perK(float64(schedules))
	m["core.sched_ns_per_call"] = 0
	if s := tr.in.sched; s != nil && s.calls > 0 {
		m["core.sched_ns_per_call"] = float64(s.ns) / float64(s.calls)
	}
	m["core.handover_us_per_call"] = 0
	if h := tr.in.handover; h.calls.Load() > 0 {
		m["core.handover_us_per_call"] = float64(h.ns.Load()) / float64(h.calls.Load()) / 1e3
	}

	// deployment backends
	m["cluster.scale_ups_per_kreq"] = perK(clusterOp("scale_up"))
	m["cluster.scale_downs_per_kreq"] = perK(clusterOp("scale_down"))
	m["cluster.deploy_retries"] = float64(retries)

	// workload
	m["workload.inflight_peak"] = counter("replay_inflight_max")

	// virtual phases, as shares of all root-span time
	var excl [attrib.NumPhases]time.Duration
	var root time.Duration
	for _, s := range tr.streams {
		rep := s.col.Report()
		for ph := attrib.Phase(0); ph < attrib.NumPhases; ph++ {
			excl[ph] += rep.Excl[ph].Sum()
			root += rep.Excl[ph].Sum()
		}
	}
	for ph := attrib.Phase(0); ph < attrib.NumPhases; ph++ {
		v := 0.0
		if root > 0 {
			v = 100 * float64(excl[ph]) / float64(root)
		}
		m[fmt.Sprintf("virt.%s_pct", ph)] = v
	}

	// obs
	m["obs.spans_per_req"] = perReq(float64(spans))
	m["obs.trace_overhead_pct"] = 100 * (1 - float64(untracedWall)/float64(tr.wall))
	return m
}
