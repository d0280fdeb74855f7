package workload

import (
	"fmt"
	"time"

	"transparentedge/internal/core"
	"transparentedge/internal/metrics"
	"transparentedge/internal/obs"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/testbed"
)

// DefaultExactSamples is the per-series sample count above which Replay
// switches the totals series to fixed-memory histogram mode. Below it,
// every sample is retained and quantiles are exact — the paper-scale trace
// (1708 requests) stays far under this, so its results are bit-identical to
// the unbounded series.
const DefaultExactSamples = 65536

// ReplayResult aggregates one trace replay.
type ReplayResult struct {
	// Totals holds every request's client-measured total time (timecurl's
	// time_total), stamped at the request's arrival time. Above the exact
	// sample threshold it degrades to a log-bucketed histogram (see
	// Options.ExactSamples).
	Totals *metrics.Series
	// FirstRequests holds only each service's first request (the
	// on-demand deployment requests of figs. 11/12).
	FirstRequests *metrics.Series
	// Errors counts failed requests.
	Errors int
	// Registrations are the per-service registrations used.
	Registrations []spec.Registration
}

// Options configures a replay run beyond the trace itself.
type Options struct {
	// PrePull / PreCreate run the fig. 11 warm conditions before t=0.
	PrePull   bool
	PreCreate bool
	// MaxInFlight bounds concurrently executing requests (0 = unlimited).
	// Arrivals beyond the cap queue FIFO and start as running requests
	// finish; their measured latency still spans arrival to completion, so
	// queueing shows up in the totals.
	MaxInFlight int
	// ExactSamples is the per-series sample threshold beyond which result
	// series fold into fixed-memory histograms. 0 means
	// DefaultExactSamples; negative means never fold (retain every sample).
	ExactSamples int
	// RequestTimeout bounds each request (0 = wait forever, the paper's
	// on-demand-with-waiting behavior). Timed-out requests count as errors.
	RequestTimeout time.Duration
	// Trace, when set, emits one "request" root span per replayed request
	// (arrival to completion, Err on failure) — so a replay's span count for
	// that name equals the request count. Nil = off at zero cost. Single-site
	// replays only: sharded replays trace per region (see ReplaySharded).
	Trace *obs.Tracer
	// Counters, when set, registers replay_inflight (gauge, with high-water
	// mark) and replay_errors_total. Nil = off at zero cost. Single-site
	// replays only, like Trace.
	Counters *obs.Registry
	// Handovers is a mobility schedule replayed alongside the trace: each
	// event fires at the replay anchor plus its At, on its own monotone
	// event lane (it never perturbs the arrival lane), invoking
	// ApplyHandover. Ignored when ApplyHandover is nil.
	Handovers []Handover
	// ApplyHandover performs one re-attachment (simnet MoveTo, switch
	// rewiring, controller NoteHandover — see testbed.Handover). It runs in
	// kernel context and must not block; in sharded runs it is invoked on
	// the home region's kernel and must touch only that region's state.
	ApplyHandover func(h Handover)
}

// replayObs bundles the replay layer's resolved obs handles; the zero value
// (obs off) no-ops everywhere, so the engine instruments unconditionally.
type replayObs struct {
	tr   *obs.Tracer
	in   *obs.Gauge
	errs *obs.Counter
}

func newReplayObs(tr *obs.Tracer, reg *obs.Registry) replayObs {
	o := replayObs{tr: tr}
	if reg != nil {
		o.in = reg.Gauge("replay_inflight")
		o.errs = reg.Counter("replay_errors_total")
	}
	return o
}

// request emits the per-request root span and accounting around one
// replayed request's execution.
func (o replayObs) request(at, end sim.Time, serviceKey string, err error) {
	if err != nil {
		o.errs.Inc()
	}
	if o.tr == nil {
		return
	}
	s := obs.Span{Name: "request", Cat: "request", Detail: serviceKey,
		Start: time.Duration(at), End: time.Duration(end)}
	if err != nil {
		s.Err = err.Error()
	}
	o.tr.Emit(s)
}

// Replay registers trace.Config.Services instances of the given Table I
// service type (the paper uses "a single service type per test run"),
// optionally pre-pulls and pre-creates them (the fig. 11 warm conditions),
// then replays the trace: every request is issued from its client at its
// arrival time and measured end to end. It is shorthand for ReplayWith with
// default options.
func Replay(tb *testbed.Testbed, trace *Trace, serviceKey string, prePull, preCreate bool) (*ReplayResult, error) {
	return ReplayWith(tb, trace, serviceKey, Options{PrePull: prePull, PreCreate: preCreate})
}

// ReplayWith replays a trace with explicit options. The testbed kernel is
// run to completion inside the call.
func ReplayWith(tb *testbed.Testbed, trace *Trace, serviceKey string, opts Options) (*ReplayResult, error) {
	if len(tb.Clients) == 0 {
		return nil, fmt.Errorf("workload: testbed has no clients")
	}
	if err := checkTrace(trace); err != nil {
		return nil, err
	}
	s := site{
		k:        tb.K,
		ctrl:     tb.Ctrl,
		register: tb.RegisterCatalogService,
		request: func(cli int, reg spec.Registration, key string, timeout time.Duration, done func(*simnet.HTTPResult, error)) {
			tb.RequestAsync(cli%len(tb.Clients), reg, key, timeout, done)
		},
		obs: newReplayObs(opts.Trace, opts.Counters),
	}
	res, err := s.stage(trace.Requests, trace.Config.Services, serviceKey, serviceKey, opts)
	if err != nil {
		return nil, err
	}
	// Run until all requests completed (generous bound: trace duration
	// plus slack for trailing deployments).
	tb.K.RunUntil(trace.Config.Duration + 30*time.Minute)
	return res, nil
}

// checkTrace rejects traces the engine cannot replay.
func checkTrace(trace *Trace) error {
	if trace == nil || trace.Config.Services <= 0 {
		return fmt.Errorf("workload: trace has no services")
	}
	for i, r := range trace.Requests {
		if r.Service < 0 || r.Service >= trace.Config.Services {
			return fmt.Errorf("workload: request %d references service %d outside [0,%d)",
				i, r.Service, trace.Config.Services)
		}
		if r.Client < 0 {
			return fmt.Errorf("workload: request %d has negative client %d", i, r.Client)
		}
	}
	return nil
}

// site is one replay target — a whole testbed, or one region of a sharded
// scenario — reduced to what differs between the two. The replay engine
// (stage) does everything else once for both.
type site struct {
	k *sim.Kernel
	// ctrl's clusters are the ones preparation pre-pulls and pre-creates.
	ctrl     *core.Controller
	register func(key string) (*spec.Annotated, spec.Registration, error)
	// request issues one measured request from trace client cli without
	// blocking; done runs inside the completion event.
	request func(cli int, reg spec.Registration, key string, timeout time.Duration, done func(*simnet.HTTPResult, error))
	obs     replayObs
	// keep filters the handover schedule (nil = all).
	keep func(h Handover) bool
}

// stage registers services instances of serviceKey at the site and
// schedules the replay of reqs on the site's kernel; the caller runs the
// kernel, and the returned result fills in as it does. Preparation
// (pre-pull/pre-create) runs first as one process, and the trace's t=0 is
// anchored at its end so arrival spacing is preserved. Then the handover
// lane and the whole arrival schedule are staged as monotone event batches
// (O(n), no heap churn), and each request runs on the callback-mode request
// core — no process, channel or promise per request — so peak memory tracks
// in-flight requests and the steady-state request path stays under ten
// allocations. name prefixes the result series.
func (s *site) stage(reqs []Request, services int, name, serviceKey string, opts Options) (*ReplayResult, error) {
	exact := opts.ExactSamples
	if exact == 0 {
		exact = DefaultExactSamples
	}
	newSeries := func(n string) *metrics.Series {
		if exact < 0 {
			return metrics.NewSeries(n)
		}
		return metrics.NewBoundedSeries(n, exact)
	}
	res := &ReplayResult{
		Totals:        newSeries(name + "/totals"),
		FirstRequests: newSeries(name + "/first"),
		Registrations: make([]spec.Registration, services),
	}
	regs := res.Registrations
	annotated := make([]*spec.Annotated, services)
	for i := range regs {
		a, reg, err := s.register(serviceKey)
		if err != nil {
			return nil, err
		}
		regs[i] = reg
		annotated[i] = a
	}

	prepDone := sim.NewPromise[sim.Time](s.k)
	s.k.Go("prepare", func(p *sim.Proc) {
		defer func() { prepDone.Resolve(p.Now()) }()
		if !opts.PrePull && !opts.PreCreate {
			return
		}
		for _, cl := range s.ctrl.Clusters() {
			for _, a := range annotated {
				if err := cl.Pull(p, a); err != nil {
					res.Errors++
					return
				}
				if opts.PreCreate {
					if err := cl.Create(p, a); err != nil {
						res.Errors++
						return
					}
				}
			}
		}
	})

	s.stageHandovers(opts, prepDone)

	firstSeen := make(map[int]bool, services)
	isFirst := make([]bool, len(reqs))
	for i, r := range reqs {
		isFirst[i] = !firstSeen[r.Service]
		firstSeen[r.Service] = true
	}

	inFlight := 0
	var queued []int // arrival-order indices waiting on the in-flight cap
	var start func(i int, at sim.Time)
	start = func(i int, at sim.Time) {
		inFlight++
		s.obs.in.Add(1)
		r := reqs[i]
		s.request(r.Client, regs[r.Service], serviceKey, opts.RequestTimeout,
			func(hr *simnet.HTTPResult, err error) {
				inFlight--
				s.obs.in.Add(-1)
				s.obs.request(at, s.k.Now(), serviceKey, err)
				if err != nil {
					res.Errors++
				} else {
					res.Totals.Add(at, hr.Total)
					if isFirst[i] {
						res.FirstRequests.Add(at, hr.Total)
					}
				}
				if len(queued) > 0 && (opts.MaxInFlight <= 0 || inFlight < opts.MaxInFlight) {
					next := queued[0]
					queued = queued[1:]
					start(next, s.k.Now())
				}
			})
	}

	prepDone.OnDone(func(t0 sim.Time, _ error) {
		times := make([]sim.Time, len(reqs))
		for i, r := range reqs {
			times[i] = t0 + r.At
		}
		s.k.AtBatch(times, func(i int) {
			if opts.MaxInFlight > 0 && inFlight >= opts.MaxInFlight {
				queued = append(queued, i)
				return
			}
			start(i, s.k.Now())
		})
	})
	return res, nil
}

// stageHandovers schedules the mobility lane: once preparation resolves, the
// site's share of the handover schedule is staged as one monotone event
// batch anchored at the same t0 as the arrivals. Staged before the arrival
// lane so a handover and an arrival at the same instant order handover-first
// at every shard count.
func (s *site) stageHandovers(opts Options, prepDone *sim.Promise[sim.Time]) {
	if len(opts.Handovers) == 0 || opts.ApplyHandover == nil {
		return
	}
	hs := opts.Handovers
	if s.keep != nil {
		hs = nil
		for _, h := range opts.Handovers {
			if s.keep(h) {
				hs = append(hs, h)
			}
		}
		if len(hs) == 0 {
			return
		}
	}
	apply := opts.ApplyHandover
	prepDone.OnDone(func(t0 sim.Time, _ error) {
		times := make([]sim.Time, len(hs))
		for i, h := range hs {
			times[i] = t0 + h.At
		}
		s.k.AtBatch(times, func(i int) { apply(hs[i]) })
	})
}
