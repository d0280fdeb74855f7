// Package testbed assembles the simulated counterpart of the paper's
// Carinthian Computing Continuum (C³) evaluation setup (fig. 8):
//
//   - the Edge Gateway Server (EGS) running the SDN controller, the virtual
//     OVS switch, a Docker engine, and a single-node Kubernetes cluster —
//     both cluster types sharing one containerd runtime, as on the real
//     EGS;
//   - twenty Raspberry Pi client hosts behind the switch (1 Gbps links,
//     slower per-packet processing than the EGS);
//   - a cloud uplink behind which the real (cloud) service origins, Docker
//     Hub, and the Google Container Registry live;
//   - an optional private container registry inside the edge network
//     (fig. 13's alternative pull source).
//
// All latency/bandwidth constants are calibrated so the simulated medians
// land in the paper's reported ranges; see DESIGN.md §7 and the catalog
// package for the rationale.
package testbed

import (
	"fmt"
	"strings"
	"time"

	"transparentedge/internal/catalog"
	"transparentedge/internal/cluster"
	"transparentedge/internal/container"
	"transparentedge/internal/core"
	"transparentedge/internal/docker"
	"transparentedge/internal/faults"
	"transparentedge/internal/kube"
	"transparentedge/internal/obs"
	"transparentedge/internal/openflow"
	"transparentedge/internal/registry"
	"transparentedge/internal/serverless"
	"transparentedge/internal/sim"
	"transparentedge/internal/simnet"
	"transparentedge/internal/spec"
	"transparentedge/internal/srsteer"
	"transparentedge/internal/steer"
)

// Cluster kind tags used with core.Controller.AddCluster.
const (
	KindDocker     = "docker"
	KindKubernetes = "kubernetes"
	KindServerless = "serverless"
)

// Options selects what to build.
type Options struct {
	Seed       int64
	NumClients int // default 20 (the paper's client RPis)
	// EnableDocker / EnableKube select the edge cluster types (the paper
	// evaluates each separately; enable both for the §VII hybrid).
	EnableDocker bool
	EnableKube   bool
	// EnableServerless adds the WASM-based serverless platform on the EGS
	// (the §VIII future-work side-by-side operation).
	EnableServerless bool
	// UsePrivateRegistry routes image pulls to the in-network registry
	// instead of Docker Hub / GCR (fig. 13's comparison).
	UsePrivateRegistry bool
	// EnableFarEdge adds a second, farther-away Docker edge cluster
	// ("far-docker"): the paper's fig. 3 scenario, where the initial
	// request is served by a running instance in an edge further away
	// while the optimal edge deploys in the background. Edge clusters are
	// usually organized hierarchically, with the farther cluster more
	// likely to have the service cached or running.
	EnableFarEdge bool
	// Scheduler overrides the Global Scheduler (default: wait-nearest, the
	// policy under which the paper's deployment-time figures are
	// measured). Use core.NewScheduler to load one by name.
	Scheduler core.GlobalScheduler
	// AutoScaleDown enables idle-instance scale-down via the FlowMemory.
	AutoScaleDown bool
	// SwitchIdleTimeout / MemoryIdleTimeout override controller defaults
	// when non-zero.
	SwitchIdleTimeout time.Duration
	MemoryIdleTimeout time.Duration
	// LocalSchedulerName is annotated into service definitions (§V).
	LocalSchedulerName string
	// ProbeInterval overrides the controller's readiness-probe interval
	// when non-zero.
	ProbeInterval time.Duration
	// ProbeMaxWait overrides the controller's readiness-probe deadline when
	// non-zero (negative waits forever, as before the deadline existed).
	ProbeMaxWait time.Duration
	// DeployRetries / DeployBackoffBase / DeployBackoffMax configure the
	// controller's per-phase deployment retry policy when non-zero.
	DeployRetries     int
	DeployBackoffBase time.Duration
	DeployBackoffMax  time.Duration
	// Faults, when non-nil and enabled, injects deterministic failures into
	// the clusters and (via LinkLoss/LinkExtraLatency) the network. A nil or
	// all-zero spec leaves every fault hook nil — zero cost, bit-identical
	// traces.
	Faults *faults.Spec
	// Predictor, when set, enables proactive deployment: the controller
	// pre-deploys services the predictor expects to be requested within
	// PredictHorizon, checking every PredictInterval.
	Predictor       core.Predictor
	PredictInterval time.Duration
	PredictHorizon  time.Duration
	// Log receives controller event lines (legacy printf hook); Events is
	// the structured replacement and wins when both are set.
	Log    func(format string, args ...any)
	Events func(obs.Event)
	// Trace, when set, records per-request span trees across the whole
	// stack (dispatch pipeline, deploy phases, probing). Nil = off at zero
	// cost.
	Trace *obs.Tracer
	// Counters, when set, registers the controller's, network's, clusters'
	// and fault plan's counters in the registry. Nil = off at zero cost.
	Counters *obs.Registry
	// SteerBackend selects the steering backend by name: "" or "openflow"
	// builds the paper's per-flow rule installer, "srv6" (alias "srsteer")
	// the stateless ingress-encapsulation backend. See NewSteering.
	SteerBackend string
	// GNBs inserts that many gNB access switches between the clients and
	// the site switch — the radio attachment points the mobility workload
	// hands clients over between (Handover). Client i starts on gNB
	// i % GNBs; the site switch becomes a transit switch (no punt rules)
	// and each gNB punts to the controller. 0 keeps the flat topology,
	// byte-identical to before the option existed.
	GNBs int
}

// NewSteering maps a backend name to a fresh steer.Steering: "" and
// "openflow" select the rule-install backend (nil is returned for "", so
// core.New applies its own default), "srv6"/"srsteer" the stateless one.
// Unknown names panic — backend selection is experiment configuration, and
// silently running the wrong backend would invalidate a comparison.
func NewSteering(name string) steer.Steering {
	switch name {
	case "":
		return nil
	case "openflow":
		return steer.NewOpenFlow()
	case "srv6", "srsteer":
		return srsteer.New()
	default:
		panic(fmt.Sprintf("testbed: unknown steering backend %q", name))
	}
}

// Testbed is the assembled simulation.
type Testbed struct {
	K       *sim.Kernel
	Net     *simnet.Network
	Switch  *openflow.Switch
	EGS     *simnet.Host
	Clients []*simnet.Host
	Ctrl    *core.Controller
	Docker  *docker.Engine
	Kube    *kube.Cluster
	Runtime *container.Runtime

	// Serverless is the optional WASM platform on the EGS (§VIII).
	Serverless *serverless.Platform

	// FarDocker is the optional farther-away edge cluster (EnableFarEdge)
	// with its own host and runtime.
	FarDocker  *docker.Engine
	FarHost    *simnet.Host
	FarRuntime *container.Runtime

	// GNBs are the access switches of the mobility topology (Options.GNBs;
	// empty in the flat topology). gnbOf / cliPorts track each client's
	// current cell and its stable gNB port number.
	GNBs     []*openflow.Switch
	gnbOf    []int
	cliPorts []int

	Hub     *registry.Server
	GCR     *registry.Server
	Private *registry.Server

	// FaultPlan is the materialized fault plan (nil when faults are off).
	FaultPlan *faults.Plan

	cloudRouter *simnet.Router
	cloudPort   int // switch port toward the cloud
	nextVIP     int
	nextCliPort int
	origins     map[string]*simnet.Host // unique service name -> cloud origin
}

// Calibrated constants (see package comment).
const (
	egsLinkLatency   = 50 * time.Microsecond
	egsLinkBandwidth = 10 * simnet.Gbps
	rpiLinkLatency   = 150 * time.Microsecond
	rpiLinkBandwidth = 1 * simnet.Gbps
	rpiProcDelay     = 200 * time.Microsecond
	egsProcDelay     = 20 * time.Microsecond

	cloudUplinkLatency   = 8 * time.Millisecond
	cloudUplinkBandwidth = 1 * simnet.Gbps
	hubLinkLatency       = 9 * time.Millisecond
	hubLinkBandwidth     = 400 * simnet.Mbps
	gcrLinkLatency       = 7 * time.Millisecond
	gcrLinkBandwidth     = 500 * simnet.Mbps
	privLinkLatency      = 200 * time.Microsecond
	privLinkBandwidth    = 900 * simnet.Mbps

	hubManifestLatency  = 200 * time.Millisecond
	hubBlobLatency      = 120 * time.Millisecond
	gcrManifestLatency  = 160 * time.Millisecond
	gcrBlobLatency      = 100 * time.Millisecond
	privManifestLatency = 8 * time.Millisecond
	privBlobLatency     = 4 * time.Millisecond
)

// DockerConfig returns the calibrated Docker engine configuration.
func DockerConfig() docker.Config {
	return docker.Config{APILatency: 25 * time.Millisecond, PortRangeStart: 32000}
}

// RuntimeConfig returns the calibrated containerd configuration for the EGS.
func RuntimeConfig() container.RuntimeConfig {
	return container.RuntimeConfig{
		CreateDelay: 45 * time.Millisecond,
		StartDelay:  380 * time.Millisecond,
		StopDelay:   60 * time.Millisecond,
		RemoveDelay: 40 * time.Millisecond,
	}
}

// KubeConfig returns the calibrated single-node Kubernetes configuration.
func KubeConfig() kube.Config {
	cfg := kube.DefaultConfig()
	cfg.Scheduler.BindingDelay = 400 * time.Millisecond
	cfg.Kubelet.SandboxDelay = 1350 * time.Millisecond
	return cfg
}

// New assembles a testbed.
func New(opts Options) *Testbed {
	if opts.NumClients <= 0 {
		opts.NumClients = 20
	}
	if opts.Scheduler == nil {
		opts.Scheduler = core.WaitNearestScheduler{}
	}
	k := sim.New(opts.Seed)
	n := simnet.NewNetwork(k)
	tb := &Testbed{
		K:           k,
		Net:         n,
		nextVIP:     10,
		nextCliPort: 100,
		origins:     make(map[string]*simnet.Host),
	}

	tb.Switch = openflow.NewSwitch(n, "ovs", openflow.DefaultConfig())

	// EGS.
	tb.EGS = simnet.NewHost(n, "egs", "10.0.0.10")
	tb.EGS.ProcDelay = egsProcDelay
	tb.Switch.AttachHost(tb.EGS, 1, simnet.LinkConfig{
		Name: "egs", Latency: egsLinkLatency, Bandwidth: egsLinkBandwidth,
	})

	// Cloud router + uplink.
	tb.cloudRouter = simnet.NewRouter(n, "cloud-gw")
	swPort, crPort := n.Connect(tb.Switch, tb.cloudRouter, simnet.LinkConfig{
		Name: "uplink", Latency: cloudUplinkLatency, Bandwidth: cloudUplinkBandwidth,
	})
	tb.cloudPort = 2
	tb.Switch.AddPort(tb.cloudPort, swPort)
	tb.Switch.SetDefaultRoute(tb.cloudPort)
	tb.cloudRouter.SetDefault(crPort) // back toward the edge network

	// Registries.
	hubHost := simnet.NewHost(n, "docker-hub", "198.51.100.10")
	tb.attachCloudHost(hubHost, simnet.LinkConfig{Name: "hub", Latency: hubLinkLatency, Bandwidth: hubLinkBandwidth})
	tb.Hub = registry.NewServer(hubHost, registry.ServerConfig{
		ManifestLatency: hubManifestLatency, BlobLatency: hubBlobLatency,
	})
	gcrHost := simnet.NewHost(n, "gcr", "198.51.100.20")
	tb.attachCloudHost(gcrHost, simnet.LinkConfig{Name: "gcr", Latency: gcrLinkLatency, Bandwidth: gcrLinkBandwidth})
	tb.GCR = registry.NewServer(gcrHost, registry.ServerConfig{
		ManifestLatency: gcrManifestLatency, BlobLatency: gcrBlobLatency,
	})
	privHost := simnet.NewHost(n, "private-registry", "10.0.0.50")
	tb.Switch.AttachHost(privHost, 3, simnet.LinkConfig{
		Name: "private", Latency: privLinkLatency, Bandwidth: privLinkBandwidth,
	})
	tb.Private = registry.NewServer(privHost, registry.ServerConfig{
		ManifestLatency: privManifestLatency, BlobLatency: privBlobLatency,
	})
	for _, img := range catalog.Images() {
		// Publish everywhere; the resolver decides where pulls go.
		tb.Private.Add(img)
		if img.Ref == catalog.ImgResNet {
			tb.GCR.Add(img)
		} else {
			tb.Hub.Add(img)
		}
	}

	resolver := registry.NewResolver()
	if opts.UsePrivateRegistry {
		resolver.AddPrefix("", privHost.IP())
	} else {
		resolver.AddPrefix("", hubHost.IP())
		resolver.AddPrefix("gcr.io/", gcrHost.IP())
	}

	// The shared containerd runtime on the EGS.
	images := registry.NewClient(tb.EGS, resolver, registry.DefaultClientConfig())
	tb.Runtime = container.NewRuntime(tb.EGS, images, RuntimeConfig())
	behaviors := catalog.Behaviors()

	// Controller.
	ctrlCfg := core.DefaultConfig()
	ctrlCfg.Scheduler = opts.Scheduler
	ctrlCfg.AutoScaleDown = opts.AutoScaleDown
	ctrlCfg.LocalSchedulerName = opts.LocalSchedulerName
	ctrlCfg.Log = opts.Log
	ctrlCfg.Events = opts.Events
	ctrlCfg.Trace = opts.Trace
	ctrlCfg.Counters = opts.Counters
	ctrlCfg.Steering = NewSteering(opts.SteerBackend)
	tb.Net.SetObs(opts.Counters)
	if opts.SwitchIdleTimeout > 0 {
		ctrlCfg.SwitchIdleTimeout = opts.SwitchIdleTimeout
	}
	if opts.MemoryIdleTimeout > 0 {
		ctrlCfg.MemoryIdleTimeout = opts.MemoryIdleTimeout
	}
	if opts.ProbeInterval > 0 {
		ctrlCfg.ProbeInterval = opts.ProbeInterval
	}
	if opts.ProbeMaxWait != 0 {
		ctrlCfg.ProbeMaxWait = opts.ProbeMaxWait
	}
	if opts.DeployRetries > 0 {
		ctrlCfg.DeployRetries = opts.DeployRetries
	}
	if opts.DeployBackoffBase != 0 {
		ctrlCfg.DeployBackoffBase = opts.DeployBackoffBase
	}
	if opts.DeployBackoffMax != 0 {
		ctrlCfg.DeployBackoffMax = opts.DeployBackoffMax
	}
	// Distance model: clusters on the EGS are nearest (0); the far edge
	// ranks behind them (1); Docker vs Kubernetes on the same EGS tie and
	// fall back to registration order.
	ctrlCfg.Distance = func(client simnet.Addr, cl cluster.Cluster) int {
		if strings.HasPrefix(cl.Name(), "far-") {
			return 1
		}
		return 0
	}
	tb.Ctrl = core.New(k, tb.EGS, ctrlCfg)
	if opts.GNBs > 0 {
		tb.GNBs = buildGNBs(tb.Ctrl, n, tb.Switch, opts.GNBs, "")
	} else {
		tb.Ctrl.AddSwitch(tb.Switch)
	}

	if opts.EnableDocker {
		tb.Docker = docker.New("egs-docker", tb.Runtime, behaviors, DockerConfig())
		tb.Docker.SetObs(opts.Counters)
		tb.Ctrl.AddCluster(tb.Docker, KindDocker)
	}
	if opts.EnableKube {
		kubeCfg := KubeConfig()
		if opts.LocalSchedulerName != "" {
			// Run the configured Local Scheduler (§IV-B) alongside the
			// default scheduler so annotated pods get bound.
			kubeCfg.LocalSched = &kube.SchedulerConfig{
				Name:         opts.LocalSchedulerName,
				BindingDelay: 300 * time.Millisecond,
			}
		}
		kc := kube.New("egs-k8s", k, kubeCfg)
		kc.SetObs(opts.Counters)
		kc.AddNode("egs", tb.Runtime, behaviors)
		kc.Start()
		tb.Kube = kc
		tb.Ctrl.AddCluster(tb.Kube, KindKubernetes)
	}

	if opts.EnableServerless {
		// The platform keeps its own module store: WASM modules are a
		// different artifact type than container images.
		moduleStore := registry.NewClient(tb.EGS, resolver, registry.DefaultClientConfig())
		tb.Serverless = serverless.New("egs-serverless", tb.EGS, moduleStore, behaviors, serverless.DefaultConfig())
		tb.Serverless.SetObs(opts.Counters)
		tb.Ctrl.AddCluster(tb.Serverless, KindServerless)
	}

	if opts.EnableFarEdge {
		tb.FarHost = simnet.NewHost(n, "far-edge", "10.0.2.10")
		tb.FarHost.ProcDelay = egsProcDelay
		tb.Switch.AttachHost(tb.FarHost, 4, simnet.LinkConfig{
			Name: "far-edge", Latency: 2 * time.Millisecond, Bandwidth: 1 * simnet.Gbps,
		})
		farImages := registry.NewClient(tb.FarHost, resolver, registry.DefaultClientConfig())
		tb.FarRuntime = container.NewRuntime(tb.FarHost, farImages, RuntimeConfig())
		tb.FarDocker = docker.New("far-docker", tb.FarRuntime, behaviors, DockerConfig())
		tb.FarDocker.SetObs(opts.Counters)
		tb.Ctrl.AddCluster(tb.FarDocker, KindDocker)
	}

	if opts.Predictor != nil {
		interval := opts.PredictInterval
		if interval <= 0 {
			interval = 5 * time.Second
		}
		horizon := opts.PredictHorizon
		if horizon <= 0 {
			horizon = 15 * time.Second
		}
		tb.Ctrl.StartProactive(opts.Predictor, interval, horizon)
	}

	// Clients.
	for i := 0; i < opts.NumClients; i++ {
		cli := simnet.NewHost(n, fmt.Sprintf("rpi-%02d", i), simnet.Addr(fmt.Sprintf("10.0.1.%d", i+1)))
		cli.ProcDelay = rpiProcDelay
		if len(tb.GNBs) > 0 {
			g := attachClientGNB(tb.GNBs, tb.Switch, cli, i, tb.nextCliPort)
			tb.gnbOf = append(tb.gnbOf, g)
			tb.cliPorts = append(tb.cliPorts, tb.nextCliPort)
		} else {
			tb.Switch.AttachHost(cli, tb.nextCliPort, simnet.LinkConfig{
				Name: cli.Name(), Latency: rpiLinkLatency, Bandwidth: rpiLinkBandwidth,
			})
		}
		tb.nextCliPort++
		tb.Clients = append(tb.Clients, cli)
	}

	// Fault plan: attached last so every cluster and link exists. For a nil
	// or disabled spec this leaves every injector nil (the zero-cost path).
	if opts.Faults != nil && opts.Faults.Enabled() {
		tb.FaultPlan = faults.NewPlan(*opts.Faults)
		tb.FaultPlan.SetObs(opts.Counters)
		if tb.Docker != nil {
			tb.Docker.SetFaults(tb.FaultPlan.For(tb.Docker.Name()))
		}
		if tb.Kube != nil {
			tb.Kube.SetFaults(tb.FaultPlan.For(tb.Kube.Name()))
		}
		if tb.Serverless != nil {
			tb.Serverless.SetFaults(tb.FaultPlan.For(tb.Serverless.Name()))
		}
		if tb.FarDocker != nil {
			tb.FarDocker.SetFaults(tb.FaultPlan.For(tb.FarDocker.Name()))
		}
		if opts.Faults.LinkLoss > 0 || opts.Faults.LinkExtraLatency > 0 {
			tb.Net.ImpairAll(opts.Faults.LinkLoss, opts.Faults.LinkExtraLatency)
		}
	}
	return tb
}

func (tb *Testbed) attachCloudHost(h *simnet.Host, link simnet.LinkConfig) {
	hp, rp := tb.Net.Connect(h, tb.cloudRouter, link)
	h.SetUplink(hp)
	tb.cloudRouter.AddRoute(h.IP(), rp)
}

// RegisterService registers a custom edge service from a YAML definition:
// it allocates a cloud VIP, registers with the controller, and creates the
// cloud origin. behaviorImage selects the catalog behavior used for the
// cloud origin's handler ("" for a generic fast handler).
func (tb *Testbed) RegisterService(yamlSrc, domain string) (*spec.Annotated, spec.Registration, error) {
	reg := spec.Registration{
		Domain: domain,
		VIP:    simnet.Addr(fmt.Sprintf("203.0.113.%d", tb.nextVIP)),
		Port:   80,
	}
	tb.nextVIP++
	a, err := tb.Ctrl.RegisterService(yamlSrc, reg)
	if err != nil {
		return nil, spec.Registration{}, err
	}
	tb.createCloudOrigin(a, reg, "")
	return a, reg, nil
}

// RegisterCatalogService registers one of the paper's Table I services: it
// allocates a cloud VIP, creates the cloud origin host that really serves
// that address (the "perceived cloud" of fig. 1 must exist for forwarding
// without an edge instance), and registers the service with the controller.
func (tb *Testbed) RegisterCatalogService(key string) (*spec.Annotated, spec.Registration, error) {
	svc, err := catalog.Get(key)
	if err != nil {
		return nil, spec.Registration{}, err
	}
	reg := spec.Registration{
		Domain: fmt.Sprintf("%s-%d.example.com", sanitize(key), tb.nextVIP),
		VIP:    simnet.Addr(fmt.Sprintf("203.0.113.%d", tb.nextVIP)),
		Port:   80,
	}
	tb.nextVIP++
	a, err := tb.Ctrl.RegisterService(svc.YAML, reg)
	if err != nil {
		return nil, spec.Registration{}, err
	}
	tb.createCloudOrigin(a, reg, key)
	return a, reg, nil
}

func sanitize(key string) string {
	out := make([]rune, 0, len(key))
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}

// createCloudOrigin stands up the real cloud instance of a registered
// service behind the cloud router.
func (tb *Testbed) createCloudOrigin(a *spec.Annotated, reg spec.Registration, key string) {
	origin := simnet.NewHost(tb.Net, "cloud-"+a.UniqueName, reg.VIP)
	tb.attachCloudHost(origin, simnet.LinkConfig{
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
	tb.origins[a.UniqueName] = origin
}

// Origin returns the cloud origin host of a registered service.
func (tb *Testbed) Origin(uniqueName string) (*simnet.Host, bool) {
	h, ok := tb.origins[uniqueName]
	return h, ok
}

// Request issues one measured request (timecurl-style) from client index
// cli to the registered service, with the catalog request shape for key.
// timeout 0 waits forever (on-demand with waiting).
func (tb *Testbed) Request(p *sim.Proc, cli int, reg spec.Registration, key string, timeout time.Duration) (*simnet.HTTPResult, error) {
	return tb.Clients[cli].HTTPGet(p, reg.VIP, reg.Port, catalog.Request(key), timeout)
}

// RequestAsync issues the same measured request as Request without blocking
// a process: done runs inside the completion event. This is the replay
// engine's request path.
func (tb *Testbed) RequestAsync(cli int, reg spec.Registration, key string, timeout time.Duration, done func(*simnet.HTTPResult, error)) {
	tb.Clients[cli].HTTPGetAsync(reg.VIP, reg.Port, catalog.Request(key), timeout, done)
}

// Handover moves a client to another gNB cell: the old radio link is
// severed (in-flight packets drop — simnet.Host.Detach semantics), the
// client re-attaches under its stable port number, both switches' routes
// are rewired, and the controller is notified (core.NoteHandover). Runs in
// kernel context; a no-op when the client is already in the target cell.
// Panics without Options.GNBs — a flat topology has nowhere to hand over to.
func (tb *Testbed) Handover(cli, to int) {
	if len(tb.GNBs) == 0 {
		panic("testbed: Handover requires Options.GNBs > 0")
	}
	from := tb.gnbOf[cli]
	if from == to {
		return
	}
	moveClientGNB(tb.Ctrl, tb.GNBs, tb.Switch, tb.Clients[cli], tb.cliPorts[cli], from, to)
	tb.gnbOf[cli] = to
}

// ClientCell returns the gNB cell a client currently occupies (0 in the
// flat topology).
func (tb *Testbed) ClientCell(cli int) int {
	if len(tb.gnbOf) == 0 {
		return 0
	}
	return tb.gnbOf[cli]
}

// ClusterByKind returns the testbed cluster of the given kind (nil if not
// enabled).
func (tb *Testbed) ClusterByKind(kind string) cluster.Cluster {
	switch kind {
	case KindDocker:
		if tb.Docker == nil {
			return nil
		}
		return tb.Docker
	case KindKubernetes:
		if tb.Kube == nil {
			return nil
		}
		return tb.Kube
	case KindServerless:
		if tb.Serverless == nil {
			return nil
		}
		return tb.Serverless
	}
	return nil
}
