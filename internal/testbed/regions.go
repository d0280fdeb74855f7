package testbed

import (
	"fmt"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/core"
	"transparentedge/internal/docker"
	"transparentedge/internal/faults"
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/registry"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
)

// DefaultRegions is the number of edge sites in the sharded scenario. The
// domain topology is fixed by the scenario, never by the shard count — that
// is what makes results bit-identical at every -shards value.
const DefaultRegions = 8

// regionUplinkLatency is the one-way latency of each edge site's backbone
// uplink — the minimum inter-domain link latency, and therefore the shard
// group's conservative lookahead. It matches the single-testbed cloud
// uplink calibration.
const regionUplinkLatency = cloudUplinkLatency

// RegionOptions configures a sharded multi-region scenario.
type RegionOptions struct {
	Seed int64
	// Regions is the number of edge sites (default DefaultRegions). Each
	// site is one shard domain; the cloud backbone is one more.
	Regions int
	// Shards is the number of kernels the domains are partitioned onto
	// (default 1, the serial degenerate case). Clamped to Regions+1.
	Shards int
	// ClientsPerRegion is the number of RPi clients per site (default 20).
	ClientsPerRegion int
	// Traced / Counted enable per-region obs handles (one tracer/registry
	// per site, merged deterministically by the caller in region order).
	Traced  bool
	Counted bool
	// Faults, when non-nil and enabled, builds one deterministic fault
	// plan per region (injector decisions key on the per-region cluster
	// names, so sites fail independently but reproducibly) and impairs
	// every network when link faults are configured.
	Faults *faults.Spec
	// SteerBackend selects each region's steering backend by name (see
	// NewSteering); every region gets its own fresh backend instance.
	SteerBackend string
	// GNBs inserts that many gNB access switches per region between the
	// site's clients and its switch (Options.GNBs, tiled): handovers are
	// strictly intra-region, so the topology change never crosses a shard
	// boundary. 0 keeps the flat per-region topology.
	GNBs int
}

// Region is one edge site: its own network, switch, EGS, controller,
// Docker cluster, and clients — all living on the region's shard domain.
type Region struct {
	Domain  int // shard domain ID (cloud backbone is domain 0)
	Net     *simnet.Network
	Switch  *openflow.Switch
	EGS     *simnet.Host
	Clients []*simnet.Host
	Ctrl    *core.Controller
	Docker  *docker.Engine
	Runtime *container.Runtime

	// GNBs are the site's access switches (RegionOptions.GNBs; empty in
	// the flat topology), with each client's current cell and stable port.
	GNBs     []*openflow.Switch
	gnbOf    []int
	cliPorts []int

	// Trace / Counters are the site's obs handles (nil unless enabled).
	Trace    *obs.Tracer
	Counters *obs.Registry
	// FaultPlan is the site's materialized fault plan (nil without faults).
	FaultPlan *faults.Plan

	nextVIP int
}

// Regions is the assembled sharded scenario: R edge sites plus a cloud
// backbone domain holding the router, the public registries, and every
// service's cloud origin. Sites reach the cloud (image pulls, forwarded
// first requests) over cross-shard fabric links.
type Regions struct {
	Group  *sim.ShardGroup
	Fabric *simnet.Fabric
	Sites  []*Region

	CloudNet *simnet.Network
	Router   *simnet.Router
	Hub      *registry.Server
	GCR      *registry.Server

	origins map[string]*simnet.Host
}

// NewRegions assembles the sharded scenario. Every structural decision —
// addressing, link configs, registration order — depends only on opts, not
// on the shard count, so runs differ across Shards values only in which
// kernel executes which domain.
func NewRegions(opts RegionOptions) *Regions {
	if opts.Regions <= 0 {
		opts.Regions = DefaultRegions
	}
	if opts.ClientsPerRegion <= 0 {
		opts.ClientsPerRegion = 20
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	domains := opts.Regions + 1
	group := sim.NewShardGroup(domains, opts.Shards, opts.Seed, regionUplinkLatency)
	rs := &Regions{
		Group:   group,
		Fabric:  simnet.NewFabric(group),
		origins: make(map[string]*simnet.Host),
	}

	// Cloud backbone (domain 0): router, Docker Hub, GCR.
	rs.CloudNet = simnet.NewNetwork(group.Kernel(0))
	rs.Router = simnet.NewRouter(rs.CloudNet, "backbone")
	hubHost := simnet.NewHost(rs.CloudNet, "docker-hub", "198.51.100.10")
	rs.attachCloudHost(hubHost, simnet.LinkConfig{Name: "hub", Latency: hubLinkLatency, Bandwidth: hubLinkBandwidth})
	rs.Hub = registry.NewServer(hubHost, registry.ServerConfig{
		ManifestLatency: hubManifestLatency, BlobLatency: hubBlobLatency,
	})
	gcrHost := simnet.NewHost(rs.CloudNet, "gcr", "198.51.100.20")
	rs.attachCloudHost(gcrHost, simnet.LinkConfig{Name: "gcr", Latency: gcrLinkLatency, Bandwidth: gcrLinkBandwidth})
	rs.GCR = registry.NewServer(gcrHost, registry.ServerConfig{
		ManifestLatency: gcrManifestLatency, BlobLatency: gcrBlobLatency,
	})
	for _, img := range catalog.Images() {
		if img.Ref == catalog.ImgResNet {
			rs.GCR.Add(img)
		} else {
			rs.Hub.Add(img)
		}
	}
	resolver := registry.NewResolver()
	resolver.AddPrefix("", hubHost.IP())
	resolver.AddPrefix("gcr.io/", gcrHost.IP())

	behaviors := catalog.Behaviors()
	for i := 0; i < opts.Regions; i++ {
		d := i + 1
		k := group.Kernel(d)
		r := &Region{Domain: d, nextVIP: 10}
		if opts.Traced {
			r.Trace = obs.NewTracer(0)
		}
		if opts.Counted {
			r.Counters = obs.NewRegistry()
		}
		r.Net = simnet.NewNetwork(k)
		r.Net.SetObs(r.Counters)
		r.Switch = openflow.NewSwitch(r.Net, fmt.Sprintf("r%d/ovs", i), openflow.DefaultConfig())

		r.EGS = simnet.NewHost(r.Net, fmt.Sprintf("r%d/egs", i), simnet.Addr(fmt.Sprintf("10.%d.0.10", d)))
		r.EGS.ProcDelay = egsProcDelay
		r.Switch.AttachHost(r.EGS, 1, simnet.LinkConfig{
			Name: fmt.Sprintf("r%d/egs", i), Latency: egsLinkLatency, Bandwidth: egsLinkBandwidth,
		})

		// Backbone uplink: the site's only cross-shard link. The switch's
		// default route sends everything non-local (registry pulls, cloud
		// forwards) over it.
		swPort, rtPort := rs.Fabric.Connect(r.Net, r.Switch, d, rs.CloudNet, rs.Router, 0, simnet.LinkConfig{
			Name: fmt.Sprintf("r%d/uplink", i), Latency: regionUplinkLatency, Bandwidth: cloudUplinkBandwidth,
		})
		r.Switch.AddPort(2, swPort)
		r.Switch.SetDefaultRoute(2)
		rs.Router.AddRoute(r.EGS.IP(), rtPort)

		images := registry.NewClient(r.EGS, resolver, registry.DefaultClientConfig())
		r.Runtime = container.NewRuntime(r.EGS, images, RuntimeConfig())

		ctrlCfg := core.DefaultConfig()
		ctrlCfg.Scheduler = core.WaitNearestScheduler{}
		ctrlCfg.Trace = r.Trace
		ctrlCfg.Counters = r.Counters
		ctrlCfg.Steering = NewSteering(opts.SteerBackend)
		r.Ctrl = core.New(k, r.EGS, ctrlCfg)
		if opts.GNBs > 0 {
			r.GNBs = buildGNBs(r.Ctrl, r.Net, r.Switch, opts.GNBs, fmt.Sprintf("r%d/", i))
		} else {
			r.Ctrl.AddSwitch(r.Switch)
		}

		r.Docker = docker.New(fmt.Sprintf("r%d-docker", i), r.Runtime, behaviors, DockerConfig())
		r.Docker.SetObs(r.Counters)
		r.Ctrl.AddCluster(r.Docker, KindDocker)

		cliPort := 100
		for j := 0; j < opts.ClientsPerRegion; j++ {
			cli := simnet.NewHost(r.Net, fmt.Sprintf("r%d/rpi-%02d", i, j), simnet.Addr(fmt.Sprintf("10.%d.1.%d", d, j+1)))
			cli.ProcDelay = rpiProcDelay
			if len(r.GNBs) > 0 {
				g := attachClientGNB(r.GNBs, r.Switch, cli, j, cliPort)
				r.gnbOf = append(r.gnbOf, g)
				r.cliPorts = append(r.cliPorts, cliPort)
			} else {
				r.Switch.AttachHost(cli, cliPort, simnet.LinkConfig{
					Name: cli.Name(), Latency: rpiLinkLatency, Bandwidth: rpiLinkBandwidth,
				})
			}
			cliPort++
			rs.Router.AddRoute(cli.IP(), rtPort)
			r.Clients = append(r.Clients, cli)
		}

		if opts.Faults != nil && opts.Faults.Enabled() {
			r.FaultPlan = faults.NewPlan(*opts.Faults)
			r.FaultPlan.SetObs(r.Counters)
			r.Docker.SetFaults(r.FaultPlan.For(r.Docker.Name()))
			if opts.Faults.LinkLoss > 0 || opts.Faults.LinkExtraLatency > 0 {
				r.Net.ImpairAll(opts.Faults.LinkLoss, opts.Faults.LinkExtraLatency)
			}
		}
		rs.Sites = append(rs.Sites, r)
	}
	if opts.Faults != nil && opts.Faults.Enabled() &&
		(opts.Faults.LinkLoss > 0 || opts.Faults.LinkExtraLatency > 0) {
		rs.CloudNet.ImpairAll(opts.Faults.LinkLoss, opts.Faults.LinkExtraLatency)
	}
	return rs
}

func (rs *Regions) attachCloudHost(h *simnet.Host, link simnet.LinkConfig) {
	hp, rp := rs.CloudNet.Connect(h, rs.Router, link)
	h.SetUplink(hp)
	rs.Router.AddRoute(h.IP(), rp)
}

// RegisterCatalogService registers one Table I service with one region's
// controller and stands up its cloud origin in the backbone domain, so the
// first request's cloud forward (and every image pull) genuinely crosses
// the shard boundary. VIPs are per-region ("203.<domain>.113.<n>"), so the
// same catalog key can be registered independently at every site.
func (rs *Regions) RegisterCatalogService(region int, key string) (*spec.Annotated, spec.Registration, error) {
	r := rs.Sites[region]
	svc, err := catalog.Get(key)
	if err != nil {
		return nil, spec.Registration{}, err
	}
	reg := spec.Registration{
		Domain: fmt.Sprintf("%s-r%d-%d.example.com", sanitize(key), region, r.nextVIP),
		VIP:    simnet.Addr(fmt.Sprintf("203.%d.113.%d", r.Domain, r.nextVIP)),
		Port:   80,
	}
	r.nextVIP++
	a, err := r.Ctrl.RegisterService(svc.YAML, reg)
	if err != nil {
		return nil, spec.Registration{}, err
	}
	origin := simnet.NewHost(rs.CloudNet, "cloud-"+a.UniqueName, reg.VIP)
	rs.attachCloudHost(origin, simnet.LinkConfig{
		Name: "cloud-" + a.UniqueName, Latency: 2 * time.Millisecond, Bandwidth: 1 * simnet.Gbps,
	})
	behaviors := catalog.Behaviors()
	var b cluster.Behavior
	for _, cs := range a.Containers {
		cb := behaviors.Behavior(cs.Image)
		if cs.ContainerPort > 0 || b.RespSize == 0 {
			b = cb
		}
	}
	origin.ServeHTTPAsync(reg.Port, b.AsyncHandler())
	rs.origins[a.UniqueName] = origin
	return a, reg, nil
}

// Origin returns the cloud origin host of a registered service.
func (rs *Regions) Origin(uniqueName string) (*simnet.Host, bool) {
	h, ok := rs.origins[uniqueName]
	return h, ok
}

// Handover moves one region's client to another of that region's gNB
// cells — strictly intra-region, so the rewiring touches only the region's
// own shard domain. Must run on the region's kernel (the replay engine's
// mobility lane does); a no-op when the client already sits in the target
// cell. Panics without RegionOptions.GNBs.
func (rs *Regions) Handover(region, cli, to int) {
	r := rs.Sites[region]
	if len(r.GNBs) == 0 {
		panic("testbed: Handover requires RegionOptions.GNBs > 0")
	}
	cli = cli % len(r.Clients)
	from := r.gnbOf[cli]
	if from == to {
		return
	}
	moveClientGNB(r.Ctrl, r.GNBs, r.Switch, r.Clients[cli], r.cliPorts[cli], from, to)
	r.gnbOf[cli] = to
}

// RequestAsync issues one measured request from a region's client to a
// service registered at that region without blocking a process, like
// Testbed.RequestAsync: done runs inside the completion event. It must run
// on the region's kernel.
func (rs *Regions) RequestAsync(region, cli int, reg spec.Registration, key string, timeout time.Duration, done func(*simnet.HTTPResult, error)) {
	r := rs.Sites[region]
	r.Clients[cli%len(r.Clients)].HTTPGetAsync(reg.VIP, reg.Port, catalog.Request(key), timeout, done)
}
