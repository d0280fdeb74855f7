package workload

import (
	"fmt"
	"time"

	"transparentedge/internal/metrics"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/testbed"
)

// ShardReplayResult aggregates one sharded trace replay.
type ShardReplayResult struct {
	// PerRegion holds each site's replay result, indexed by region. Every
	// per-region series is accumulated on that region's kernel only, so
	// window workers never share a sink; scenario totals are merged from
	// them in region order (deterministic at every shard count).
	PerRegion []*ReplayResult
	// Totals is the merged client-measured total-time histogram.
	Totals *metrics.Hist
	// Errors counts failed requests across all regions.
	Errors int
	// Deployments counts first-requests (= on-demand deployments) across
	// all regions.
	Deployments int
}

// ReplaySharded replays a trace against a sharded multi-region scenario.
// Requests partition by client: client c lives in region c % R as that
// region's client c / R, and each region registers its own instances of the
// trace's services — every site deploys on demand for its own clients (the
// paper's single-site scenario, tiled). Each region runs the single-site
// replay engine on its own kernel: preparation, handovers (those of its
// clients), the arrival schedule anchored at its own preparation end, and
// the in-flight cap.
//
// Sharded runs instrument through the per-region handles built into rs
// (testbed.RegionOptions.Traced / Counted), because a shared tracer or
// registry would be written by concurrent window workers; setting
// opts.Trace or opts.Counters is an error.
func ReplaySharded(rs *testbed.Regions, trace *Trace, serviceKey string, opts Options) (*ShardReplayResult, error) {
	if len(rs.Sites) == 0 {
		return nil, fmt.Errorf("workload: region set has no sites")
	}
	if opts.Trace != nil || opts.Counters != nil {
		return nil, fmt.Errorf("workload: sharded replay takes no Options.Trace or Options.Counters; " +
			"enable testbed.RegionOptions.Traced / Counted instead")
	}
	if err := checkTrace(trace); err != nil {
		return nil, err
	}
	regions := len(rs.Sites)
	perRegion := make([][]Request, regions)
	for _, r := range trace.Requests {
		d := r.Client % regions
		perRegion[d] = append(perRegion[d], r)
	}

	res := &ShardReplayResult{PerRegion: make([]*ReplayResult, regions)}
	for d, r := range rs.Sites {
		s := site{
			k:    rs.Group.Kernel(r.Domain),
			ctrl: r.Ctrl,
			register: func(key string) (*spec.Annotated, spec.Registration, error) {
				return rs.RegisterCatalogService(d, key)
			},
			request: func(cli int, reg spec.Registration, key string, timeout time.Duration, done func(*simnet.HTTPResult, error)) {
				rs.RequestAsync(d, cli/regions, reg, key, timeout, done)
			},
			obs:  newReplayObs(r.Trace, r.Counters),
			keep: func(h Handover) bool { return h.Client%regions == d },
		}
		rres, err := s.stage(perRegion[d], trace.Config.Services, fmt.Sprintf("%s/r%d", serviceKey, d), serviceKey, opts)
		if err != nil {
			return nil, err
		}
		res.PerRegion[d] = rres
	}

	rs.Group.RunUntil(trace.Config.Duration + 30*time.Minute)

	res.Totals = metrics.NewHist(serviceKey + "/totals")
	for d, rres := range res.PerRegion {
		res.Errors += rres.Errors
		res.Deployments += rres.FirstRequests.Len()
		if err := res.Totals.Merge(rres.Totals.ToHist()); err != nil {
			return nil, fmt.Errorf("workload: merging region %d totals: %w", d, err)
		}
	}
	return res, nil
}
