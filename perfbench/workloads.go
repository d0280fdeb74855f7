package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/core"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/sim"
	"transparentedge/internal/testbed"
	"transparentedge/internal/workload"
)

// params is one workload's shape. Every field is recorded in the manifest,
// so a printed number can be re-run from the output alone.
type params struct {
	Requests  int     `json:"requests"`
	Services  int     `json:"services"`
	Clients   int     `json:"clients"`
	MinPerSvc int     `json:"min_per_service"`
	ZipfS     float64 `json:"zipf_s"`
	FrontLoad float64 `json:"front_load"`
	// DurationS is the trace window in virtual seconds.
	DurationS float64 `json:"duration_s"`
	// Parts > 1 builds the trace from that many independently generated
	// traces over disjoint service sets, each with Services/Parts services
	// and Requests/Parts requests (see generate).
	Parts     int    `json:"parts,omitempty"`
	Steering  string `json:"steering"`
	Scheduler string `json:"scheduler"`
	Kube      bool   `json:"kube"`
	PreCreate bool   `json:"pre_create"`
	// AutoScaleDown with the two idle timeouts drives the scale-up/down churn.
	AutoScaleDown bool    `json:"auto_scale_down"`
	SwitchIdleS   float64 `json:"switch_idle_s,omitempty"`
	MemoryIdleS   float64 `json:"memory_idle_s,omitempty"`
	// Regions > 0 selects the sharded multi-region scenario.
	Regions int `json:"regions,omitempty"`
	Shards  int `json:"shards,omitempty"`
	GNBs    int `json:"gnbs,omitempty"`
	// MeanDwellS / MinDwellS shape the handover schedule (GNBs > 0).
	MeanDwellS float64 `json:"mean_dwell_s,omitempty"`
	MinDwellS  float64 `json:"min_dwell_s,omitempty"`
}

// workloads are the benchmark's scenarios, each stressing different layers
// (see README.md for why each was chosen and which layers it should move).
var workloads = map[string]params{
	// The steady-state datapath: 8 services pre-created, so almost every
	// request hits an installed switch rule (the scale-replay shape).
	"warm-site": {
		Requests: 200000, Services: 64, Clients: 20, MinPerSvc: 2000,
		ZipfS: 1.15, FrontLoad: 1, DurationS: 120, Parts: 4,
		Steering: "openflow", Scheduler: "wait-nearest", PreCreate: true,
	},
	// The sharded replay engine with stateless steering and mobility:
	// 8 regions plus the cloud backbone on 2 kernels, intra-region
	// handovers between 2 gNBs per region.
	"regions-mobile": {
		Requests: 100000, Services: 64, Clients: 160, MinPerSvc: 1000,
		ZipfS: 1.15, FrontLoad: 1, DurationS: 60, Parts: 4,
		Steering: "srv6", Scheduler: "wait-nearest", PreCreate: true,
		Regions: 8, Shards: 2, GNBs: 2, MeanDwellS: 10, MinDwellS: 1,
	},
	// The control plane: 200 services pulled but not created, 2000
	// clients and short idle timeouts, so nearly every request punts to
	// the controller and services cycle through scale-up and scale-down.
	"cold-churn": {
		Requests: 20000, Services: 200, Clients: 2000, MinPerSvc: 20,
		ZipfS: 1.15, FrontLoad: 1, DurationS: 60, Parts: 4,
		Steering: "openflow", Scheduler: "docker-first", Kube: true,
		AutoScaleDown: true, SwitchIdleS: 1, MemoryIdleS: 5,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scaled shrinks a workload for quick runs (the benchmark's own tests):
// request count and trace window scale together, so the arrival rate and
// therefore the in-flight concurrency stay those of the full workload.
func (p params) scaled(f float64) params {
	if f >= 1 {
		return p
	}
	p.Requests = int(float64(p.Requests) * f)
	p.MinPerSvc = max(1, min(p.MinPerSvc, p.Requests/p.Services))
	p.DurationS *= f
	return p
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// generate builds the workload's trace from the seed. A generated trace's
// shape hinges on where its few most popular services start (Zipf head),
// so one trace of 200 services varies a lot from seed to seed; merging
// Parts independent traces keeps the per-service shape while averaging
// that out.
func (p params) generate(seed int64) *workload.Trace {
	parts := max(p.Parts, 1)
	cfg := workload.Config{
		Services: p.Services / parts, TotalRequests: p.Requests / parts,
		MinPerService: p.MinPerSvc, Duration: secs(p.DurationS),
		Clients: p.Clients, ZipfS: p.ZipfS, FrontLoad: p.FrontLoad,
	}
	if parts == 1 {
		cfg.Seed = seed
		return workload.Generate(cfg)
	}
	var reqs []workload.Request
	for i := 0; i < parts; i++ {
		c := cfg
		c.Seed = seed*int64(parts) + int64(i)
		for _, r := range workload.Generate(c).Requests {
			r.Service += i * c.Services
			reqs = append(reqs, r)
		}
	}
	// Generate's own order: arrival time, then service, then client.
	sort.Slice(reqs, func(i, j int) bool {
		a, b := reqs[i], reqs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		return a.Client < b.Client
	})
	cfg.Seed, cfg.Services, cfg.TotalRequests = seed, cfg.Services*parts, len(reqs)
	return &workload.Trace{Config: cfg, Requests: reqs}
}

// instruments are what a traced run injects through the public options and
// interfaces. The zero value is the untraced configuration.
type instruments struct {
	traced bool
	// Single site: one tracer and registry for the whole testbed.
	tracer *obs.Tracer
	reg    *obs.Registry
	sched  *timedScheduler
	// Both: the handover decorator, and one span sink per tracer stream
	// (index = region; single site uses index 0).
	handover *timedHandover
	sink     func(region int) func(obs.Span)
}

// scenario is one set-up workload instance, ready for its one replay.
type scenario struct {
	p        params
	trace    *workload.Trace
	arrivals int
	tb       *testbed.Testbed
	rs       *testbed.Regions
	opts     workload.Options
	// regs hold each region's replay counters (replay_inflight,
	// replay_errors_total): the whole registry in traced runs, the replay
	// layer's two series alone otherwise. cloudReg counts the backbone
	// network's packet pool in traced sharded runs.
	regs     []*obs.Registry
	cloudReg *obs.Registry

	siteRes  *workload.ReplayResult
	shardRes *workload.ShardReplayResult
}

// setup builds the scenario: topology, trace, handover schedule. It is the
// part of a run timed as setup_s.
func setup(p params, seed int64, shards int, in instruments) (*scenario, error) {
	sc := &scenario{p: p, trace: p.generate(seed)}
	sc.arrivals = len(sc.trace.Requests)
	sc.opts = workload.Options{PrePull: true, PreCreate: p.PreCreate}
	if p.GNBs > 0 {
		sc.opts.Handovers = workload.GenerateHandovers(workload.MobilityConfig{
			Seed: seed + 7, Clients: p.Clients, Cells: p.GNBs,
			Duration: secs(p.DurationS), MeanDwell: secs(p.MeanDwellS), MinDwell: secs(p.MinDwellS),
		})
	}
	if p.Regions > 0 {
		return sc, sc.setupRegions(seed, shards, in)
	}
	return sc, sc.setupSite(seed, in)
}

func (sc *scenario) setupSite(seed int64, in instruments) error {
	p := sc.p
	sched, err := core.NewScheduler(p.Scheduler)
	if err != nil {
		return err
	}
	// Untraced, only the replay layer gets a registry: its in-flight gauge
	// counts lost arrivals. Traced, the whole testbed shares one.
	reg := obs.NewRegistry()
	var tbReg *obs.Registry
	if in.traced {
		in.sched.GlobalScheduler = sched
		sched = in.sched
		reg, tbReg = in.reg, in.reg
	}
	sc.tb = testbed.New(testbed.Options{
		Seed: seed, NumClients: p.Clients,
		EnableDocker: true, EnableKube: p.Kube,
		Scheduler:         sched,
		AutoScaleDown:     p.AutoScaleDown,
		SwitchIdleTimeout: secs(p.SwitchIdleS), MemoryIdleTimeout: secs(p.MemoryIdleS),
		SteerBackend: p.Steering,
		GNBs:         p.GNBs,
		Trace:        in.tracer,
		Counters:     tbReg,
	})
	sc.regs = []*obs.Registry{reg}
	sc.opts.Counters = reg
	sc.opts.Trace = in.tracer
	if len(sc.opts.Handovers) > 0 {
		tb := sc.tb
		sc.opts.ApplyHandover = in.handover.wrap(func(h workload.Handover) {
			tb.Handover(h.Client%len(tb.Clients), h.To)
		})
	}
	return nil
}

func (sc *scenario) setupRegions(seed int64, shards int, in instruments) error {
	p := sc.p
	if p.Scheduler != "wait-nearest" {
		// testbed.Regions builds every controller with WaitNearestScheduler.
		return fmt.Errorf("regions scenario supports only the wait-nearest scheduler, not %q", p.Scheduler)
	}
	sc.rs = testbed.NewRegions(testbed.RegionOptions{
		Seed: seed, Regions: p.Regions, Shards: shards,
		ClientsPerRegion: p.Clients / p.Regions,
		SteerBackend:     p.Steering,
		GNBs:             p.GNBs,
		Traced:           in.traced,
		Counted:          in.traced,
	})
	for d, site := range sc.rs.Sites {
		if !in.traced {
			// Replay counters only: ReplaySharded reads them from the site
			// at call time, after every layer was built without a registry.
			site.Counters = obs.NewRegistry()
		} else {
			site.Trace.SetSink(in.sink(d))
		}
		sc.regs = append(sc.regs, site.Counters)
	}
	if in.traced {
		sc.rs.Group.EnableWallStats()
		sc.cloudReg = obs.NewRegistry()
		sc.rs.CloudNet.SetObs(sc.cloudReg)
	}
	if len(sc.opts.Handovers) > 0 {
		rs, regions := sc.rs, p.Regions
		sc.opts.ApplyHandover = in.handover.wrap(func(h workload.Handover) {
			rs.Handover(h.Client%regions, h.Client/regions, h.To)
		})
	}
	return nil
}

// replay is the timed call into the program.
func (sc *scenario) replay() error {
	var err error
	if sc.rs != nil {
		sc.shardRes, err = workload.ReplaySharded(sc.rs, sc.trace, catalog.Nginx, sc.opts)
	} else {
		sc.siteRes, err = workload.ReplayWith(sc.tb, sc.trace, catalog.Nginx, sc.opts)
	}
	return err
}

// outcome is the simulated result of one replay: deterministic per seed,
// identical at every shard count and with tracing on or off.
type outcome struct {
	counts
	// Deploys counts deployments the controllers performed.
	Deploys   uint64
	PerRegion []int
	// Totals holds the client-measured total times of completed requests.
	Totals *metrics.Hist
}

// counts are the request-level results of one replay.
type counts struct {
	Arrivals, Completed, Errors, Lost int
	// Deployments counts services whose first request was served (the
	// on-demand deployments).
	Deployments int
	Handovers   uint64
	// Accounting is empty when arrivals = completed + errors + lost holds
	// and the replay layer's error counter agrees with its result.
	Accounting string
}

// Fingerprint digests every deterministic output of the replay.
func (o outcome) Fingerprint() string {
	h := fnv.New64a()
	var b [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range []int{o.Arrivals, o.Completed, o.Errors, o.Lost, o.Deployments} {
		mix(uint64(v))
	}
	mix(o.Deploys)
	mix(o.Handovers)
	for _, n := range o.PerRegion {
		mix(uint64(n))
	}
	mix(o.Totals.Fingerprint())
	return fmt.Sprintf("%016x", h.Sum64())
}

// outcome reads the replay's results. Lost arrivals are the replay layer's
// in-flight gauge at the end of the run, so the accounting identity is a
// real check rather than a definition.
func (sc *scenario) outcome() outcome {
	o := outcome{counts: counts{Arrivals: sc.arrivals}}
	var results []*workload.ReplayResult
	arrivals := make([]int, len(sc.regs))
	if sc.rs != nil {
		results = sc.shardRes.PerRegion
		o.Totals = sc.shardRes.Totals
		for _, r := range sc.trace.Requests {
			arrivals[r.Client%len(arrivals)]++
		}
	} else {
		results = []*workload.ReplayResult{sc.siteRes}
		o.Totals = sc.siteRes.Totals.ToHist()
		arrivals[0] = sc.arrivals
	}
	for d, res := range results {
		m := sc.regs[d].Map()
		lost, errs := int(m["replay_inflight"]), int(m["replay_errors_total"])
		done := res.Totals.Len()
		if done+errs+lost != arrivals[d] || errs != res.Errors {
			o.Accounting += fmt.Sprintf("region %d: %d arrivals != %d completed + %d errors + %d lost (result errors %d); ",
				d, arrivals[d], done, errs, lost, res.Errors)
		}
		o.Completed += done
		o.Errors += res.Errors
		o.Lost += lost
		o.Deployments += res.FirstRequests.Len()
		o.PerRegion = append(o.PerRegion, done)
	}
	for _, c := range sc.controllers() {
		o.Deploys += c.Stats.Deployments
		o.Handovers += c.Stats.Handovers
	}
	return o
}

func (sc *scenario) controllers() []*core.Controller {
	if sc.rs == nil {
		return []*core.Controller{sc.tb.Ctrl}
	}
	var cs []*core.Controller
	for _, s := range sc.rs.Sites {
		cs = append(cs, s.Ctrl)
	}
	return cs
}

func (sc *scenario) switches() []*openflow.Switch {
	if sc.rs == nil {
		return append([]*openflow.Switch{sc.tb.Switch}, sc.tb.GNBs...)
	}
	var sws []*openflow.Switch
	for _, s := range sc.rs.Sites {
		sws = append(append(sws, s.Switch), s.GNBs...)
	}
	return sws
}

func (sc *scenario) kernels() []sim.KernelStats {
	if sc.rs == nil {
		return []sim.KernelStats{sc.tb.K.Stats()}
	}
	var ks []sim.KernelStats
	for _, s := range sc.rs.Group.Stats().Shards {
		ks = append(ks, s.Kernel)
	}
	return ks
}
