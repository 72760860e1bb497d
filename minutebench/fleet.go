package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/controller"
	"autoglobe/internal/forecast"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/tsdb"
	"autoglobe/internal/wire"
)

// fleetSpec describes a synthetic landscape whose services cycle
// through hot and cold spells, driven minute by minute through the
// coordinator and controller APIs, the way the agentd coordinator runs
// its loop.
type fleetSpec struct {
	hosts       int
	serverEvery int // every serverEvery-th host is a PI-9 server, the rest PI-1 blades
	services    int
	// instances is how many instances start, dealt round-robin over the
	// services and the blades.
	instances int
	// maxInstances caps every service (0: unbounded).
	maxInstances int
	warmup       int // untimed minutes before measuring
	// landscapes is how many landscapes a run builds (each timed for
	// setup_s), warms up, measures and checks, sharing its wall time.
	landscapes int
	minimum    int // minutes measured at least, so p95 has 10 samples beyond it
}

// Retention of the fleet archives' in-memory rings: longer than any
// watch window or forecast horizon the controller averages over. The
// store compacts hourly once a landscape's minute passes it, which the
// warm-up already does.
const fleetRetention = 120

// fleet is one constructed landscape with its control plane.
type fleet struct {
	dep   *service.Deployment
	arch  *archive.Archive
	lb    *wire.Loopback
	plane *agent.Plane
	ctl   *controller.Controller
	jrnl  *agent.CoordinatorJournal

	hosts []fleetHost
	gen   loadGen
	dirty bool // the deployment changed since the host caches were built
	// entityBytes is the archive's measured footprint per entity
	// (traced runs only).
	entityBytes float64
}

type fleetHost struct {
	name  string
	memMB float64
	rep   *agent.HeartbeatReporter
	insts []*service.Instance
	svcs  []int // loadGen service index of each instance
}

func hostName(i int) string { return fmt.Sprintf("h%05d", i) }
func svcName(i int) string  { return fmt.Sprintf("s%03d", i) }

// build constructs the landscape, the tsdb-backed archive, the plane
// (coordinator, one agent per host, dispatcher, journal) and the
// controller with its forecast scan. Everything it creates on disk
// lives under dir.
func (s *fleetSpec) build(dir string, seed uint64, tr *tracer, reg *obs.Registry) (*fleet, error) {
	hosts := make([]cluster.Host, s.hosts)
	for i := range hosts {
		hosts[i] = cluster.Host{Name: hostName(i), Category: "blade",
			PerformanceIndex: 1, CPUs: 1, ClockMHz: 2400, CacheKB: 512,
			MemoryMB: 4096, SwapMB: 2048, TempMB: 51200}
		if i%s.serverEvery == 0 {
			hosts[i].Category = "server"
			hosts[i].PerformanceIndex = 9
			hosts[i].CPUs = 8
			hosts[i].MemoryMB = 65536
		}
	}
	allowed := make(map[service.Action]bool)
	for _, a := range service.Actions() {
		allowed[a] = true
	}
	svcs := make([]*service.Service, s.services)
	for i := range svcs {
		svcs[i] = &service.Service{Name: svcName(i), Type: service.TypeInteractive,
			Subsystem: "ERP", MinInstances: 1, MaxInstances: s.maxInstances, UsersPerUnit: 150, RequestWeight: 1,
			MemoryMBPerInstance: 256, Allowed: allowed}
	}
	cat, err := service.NewCatalog(svcs...)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(hosts...)
	if err != nil {
		return nil, err
	}
	dep := service.NewDeployment(cl, cat)
	var blades []string
	for _, h := range hosts {
		if h.PerformanceIndex == 1 {
			blades = append(blades, h.Name)
		}
	}
	for j := 0; j < s.instances; j++ {
		// Each pass over the blades shifts by one, so a service never
		// lands twice on one blade.
		blade := blades[(j+j/len(blades))%len(blades)]
		if _, err := dep.Start(svcName(j%s.services), blade); err != nil {
			return nil, err
		}
	}

	arch, err := archive.NewBacked(filepath.Join(dir, "archive"), fleetRetention, tsdb.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	f := &fleet{dep: dep, arch: arch}
	if tr != nil {
		f.entityBytes = preallocate(arch, dep)
	}
	lms, err := monitor.NewSystem(monitor.PaperParams(), arch)
	if err != nil {
		return nil, err
	}
	f.lb = wire.NewLoopback()
	f.lb.SetCodec(wire.CodecBinary)
	f.plane, err = agent.NewPlane(agent.PlaneConfig{
		Transport:    &timedTransport{Transport: f.lb, tr: tr},
		IngestShards: procs,
		Dispatch:     agent.DispatchConfig{Workers: procs, Seed: seed},
	}, dep, lms)
	if err != nil {
		return nil, err
	}
	if _, _, err := f.plane.AttachJournal(context.Background(), filepath.Join(dir, "journal"),
		journal.Options{NoSync: true}); err != nil {
		return nil, err
	}
	f.jrnl = f.plane.Dispatcher().Journal()
	exec := &timedExecutor{inner: f.plane.Executor(controller.NewDeploymentExecutor(dep, controller.RebalanceUsers)), tr: tr}
	f.ctl, err = controller.New(controller.Config{Forecast: &controller.ForecastConfig{
		Predictor: forecast.New(arch),
		Horizon:   30,
		Threshold: monitor.PaperParams().OverloadThreshold,
		Watching:  lms.Watching,
	}}, dep, arch, exec)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		f.plane.Instrument(reg)
		f.ctl.Instrument(reg)
		f.arch.Instrument(reg)
		f.jrnl.Instrument(reg)
	}
	f.gen = newLoadGen(s, seed)
	f.hosts = make([]fleetHost, len(hosts))
	for i, h := range hosts {
		rep, ok := f.plane.Reporter(h.Name)
		if !ok {
			return nil, fmt.Errorf("no reporter for host %s", h.Name)
		}
		f.hosts[i] = fleetHost{name: h.Name, memMB: float64(h.MemoryMB), rep: rep}
	}
	dep.Watch(func(string) { f.dirty = true })
	f.refresh()
	return f, nil
}

// preallocate warms the archive for every entity the coordinator will
// record and returns the live heap that cost per entity.
func preallocate(arch *archive.Archive, dep *service.Deployment) float64 {
	var ents []string
	for _, h := range dep.Cluster().Names() {
		ents = append(ents, archive.HostEntity(h))
	}
	for _, inst := range dep.Instances() {
		ents = append(ents, archive.InstanceEntity(inst.ID))
	}
	for _, s := range dep.Catalog().Names() {
		ents = append(ents, archive.ServiceEntity(s))
	}
	before := liveHeap()
	arch.Preallocate(ents...)
	return float64(liveHeap()-before) / float64(len(ents))
}

// liveHeap returns the heap still reachable after forced collections;
// the second one also empties what sync.Pool kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// refresh rebuilds the per-host instance lists after the controller
// changed the deployment.
func (f *fleet) refresh() {
	for i := range f.hosts {
		h := &f.hosts[i]
		h.insts = f.dep.InstancesOn(h.name)
		h.svcs = h.svcs[:0]
		for _, inst := range h.insts {
			h.svcs = append(h.svcs, f.gen.index[inst.Service])
		}
	}
	f.dirty = false
}

func (f *fleet) close() error {
	err := f.jrnl.Close()
	if cerr := f.arch.Close(); err == nil {
		err = cerr
	}
	if cerr := f.lb.Close(); err == nil {
		err = cerr
	}
	return err
}

// minuteStats accumulates what the minute loop observes.
type minuteStats struct {
	beats, beatsFailed         int
	triggers, forecastTriggers int
	decisions                  int
	triggerMs                  []float64
}

// minute runs one closed-loop control minute: every host reports and
// waits for its ack, the coordinator closes the minute and checks
// liveness, the controller handles the confirmed and forecast
// triggers, and the archive seals the minute.
func (f *fleet) minute(ctx context.Context, m int, tr *tracer, st *minuteStats) error {
	root := tr.begin(stMinute)
	if f.dirty {
		f.refresh()
	}
	f.gen.tick(m)
	for i := range f.hosts {
		h := &f.hosts[i]
		noise := f.gen.noise(i, m)
		cpu := 0.02
		if len(h.insts) > 0 {
			cpu = 0
			for _, svc := range h.svcs {
				cpu += f.gen.instLoad(svc, noise)
			}
			cpu = math.Min(1, cpu)
		}
		mem := 0.1 + 256*float64(len(h.insts))/h.memMB
		id := tr.begin(stHeartbeat)
		h.rep.Begin(m, cpu, mem)
		for k, inst := range h.insts {
			h.rep.Sample(inst.ID, inst.Service, f.gen.instLoad(h.svcs[k], noise))
		}
		err := h.rep.Send(ctx)
		tr.end(id)
		st.beats++
		if err != nil {
			st.beatsFailed++
		}
	}
	coord := f.plane.Coordinator()
	if err := coord.Err(); err != nil {
		return fmt.Errorf("minute %d: ingest: %w", m, err)
	}
	id := tr.begin(stObserve)
	err := coord.ObserveServices(m)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("minute %d: observe: %w", m, err)
	}
	id = tr.begin(stLiveness)
	dead, recovered := coord.CheckLiveness(ctx, m)
	tr.end(id)
	if len(dead)+len(recovered) > 0 {
		return fmt.Errorf("minute %d: liveness changed on a healthy wire: dead %v, recovered %v", m, dead, recovered)
	}
	trs := coord.TakeTriggers()
	st.triggers += len(trs)
	for _, t := range trs {
		if err := f.handle(*t, tr, st); err != nil {
			return err
		}
	}
	coord.RecycleTriggers(trs)
	id = tr.begin(stProactive)
	forecasts := f.ctl.Proactive(m)
	tr.end(id)
	st.forecastTriggers += len(forecasts)
	for _, t := range forecasts {
		if err := f.handle(t, tr, st); err != nil {
			return err
		}
	}
	id = tr.begin(stMaintain)
	err = f.arch.Maintain(m)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("minute %d: archive: %w", m, err)
	}
	return nil
}

func (f *fleet) handle(t monitor.Trigger, tr *tracer, st *minuteStats) error {
	id := tr.begin(stTrigger)
	start := time.Now()
	d, err := f.ctl.HandleTrigger(t)
	if id < 0 {
		st.triggerMs = append(st.triggerMs, float64(time.Since(start))/1e6)
	}
	tr.end(id)
	if err != nil {
		return fmt.Errorf("minute %d: %s: %w", t.Minute, t, err)
	}
	if d != nil {
		st.decisions++
	}
	return nil
}

// verify checks the landscape after a run: the model is consistent
// and every agent's process table matches the instances the model
// places on its host.
func (f *fleet) verify() error {
	if err := f.dep.Validate(); err != nil {
		return err
	}
	for _, h := range f.hosts {
		a, ok := f.plane.Agent(h.name)
		if !ok {
			return fmt.Errorf("no agent for host %s", h.name)
		}
		got := a.Instances()
		want := f.dep.InstancesOn(h.name)
		if len(got) != len(want) {
			return fmt.Errorf("host %s: agent runs %d instances, model places %d", h.name, len(got), len(want))
		}
		for _, inst := range want {
			if got[inst.ID] != inst.Service {
				return fmt.Errorf("host %s: agent lacks instance %s of %s", h.name, inst.ID, inst.Service)
			}
		}
	}
	return nil
}

// loadGen is the fleet workload's only reader of the seed: per-service
// base levels, per-host noise and the storm's hot-set schedule. A
// service's instances all carry its current load level, whatever the
// controller did to it: a hot service stays hot for its whole spell no
// matter how it was scaled, so the storm neither dies out nor drifts.
type loadGen struct {
	seed uint64
	// Per service: base level and the offset into the storm cycle.
	base   []float64
	offset []int
	share  []float64 // this minute's load per instance
	index  map[string]int
}

// Storm cycle: each service runs hot (stormHot per instance) long
// enough for the overload watch to confirm, then cold (stormCold) long
// enough for the idle watch to confirm past the 30-minute protection,
// then at its base level.
const (
	stormPeriod  = 75
	stormHotLen  = 14
	stormColdLen = 40
	stormHot     = 0.9
	stormCold    = 0.05
)

func newLoadGen(s *fleetSpec, seed uint64) loadGen {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := s.services
	g := loadGen{seed: seed, base: make([]float64, n), offset: make([]int, n),
		share: make([]float64, n), index: make(map[string]int, n)}
	// Storm offsets and base levels are spread evenly and dealt out in
	// a seeded order, so every seed keeps the same number of services
	// entering a hot spell each minute and only which ones varies.
	offsets, levels := rng.Perm(n), rng.Perm(n)
	for i := 0; i < n; i++ {
		g.index[svcName(i)] = i
		g.base[i] = 0.25 + 0.15*float64(levels[i])/float64(n)
		g.offset[i] = offsets[i] * stormPeriod / n
	}
	return g
}

// tick computes every service's per-instance load for minute m.
func (g *loadGen) tick(m int) {
	for i := range g.share {
		g.share[i] = g.level(i, m)
	}
}

func (g *loadGen) level(svc, m int) float64 {
	switch phase := (m + g.offset[svc]) % stormPeriod; {
	case phase < stormHotLen:
		return stormHot
	case phase < stormHotLen+stormColdLen:
		return stormCold
	default:
		return g.base[svc]
	}
}

// instLoad is the CPU share of its host one instance uses.
func (g *loadGen) instLoad(svc int, noise float64) float64 {
	return math.Max(0, g.share[svc]+noise)
}

// noise is a deterministic ±0.02 perturbation per host and minute.
func (g *loadGen) noise(host, m int) float64 {
	x := g.seed ^ uint64(m)<<32 ^ uint64(host)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return 0.04*float64(x>>11)/(1<<53) - 0.02
}

// fleetSeed derives the k-th landscape's seed of a run; distinct --seed
// values give disjoint sets.
func (s *fleetSpec) fleetSeed(seed uint64, k int) uint64 {
	return seed*uint64(s.landscapes) + uint64(k)
}

// phase builds s.landscapes landscapes, each from its own derived seed,
// and measures closed-loop minutes on each, splitting the wall time
// evenly: each landscape is warmed up, measured and checked, then
// closed before the next is built. Which services run hot together
// shifts the minute by several percent from seed to seed, and several
// seeds per run even that out.
func (s *fleetSpec) phase(work string, seed uint64, seconds float64, traced bool) (*phaseReport, error) {
	// The minute root's own time is the benchmark's loop: load generation,
	// TakeTriggers/RecycleTriggers and the per-minute error check.
	rep := &phaseReport{hosts: s.hosts, root: "bench.loop_ms"}
	var tr *tracer
	var reg *obs.Registry
	if traced {
		tr, reg = newTracer(), obs.NewRegistry()
	}
	for k := 0; k < s.landscapes; k++ {
		dir, err := os.MkdirTemp(work, "fleet-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		f, err := s.build(dir, s.fleetSeed(seed, k), tr, reg)
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, time.Since(start).Seconds())
		rep.entityBytes = f.entityBytes
		err = s.measure(f, seconds/float64(s.landscapes), tr, reg, rep, k == 0)
		if cerr := f.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		// Free this landscape before the next one is built.
		runtime.GC()
	}
	rep.trace = tr
	return rep, nil
}

// measure warms one landscape up, runs closed-loop minutes on it for
// the given wall time (and at least its share of the minimum), and
// checks its outputs. The first measured landscape's live heap is taken
// right after its warm-up: a fixed point of the workload (the storm's
// archive grows with every new instance, so a heap taken after a
// wall-clock bound would grow whenever the loop got faster), and one
// before any span is recorded.
func (s *fleetSpec) measure(f *fleet, seconds float64, tr *tracer, reg *obs.Registry, rep *phaseReport, first bool) error {
	ctx := context.Background()
	var warm minuteStats
	m := 0
	for ; m < s.warmup; m++ {
		if err := f.minute(ctx, m, nil, &warm); err != nil {
			return err
		}
	}
	if first {
		rep.heapBytes = liveHeap()
	}
	before := snapshot(reg)
	dispBefore := f.plane.Dispatcher().Stats()
	var st minuteStats
	begin := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	minimum := (s.minimum + s.landscapes - 1) / s.landscapes
	for n := 0; time.Since(begin) < limit || n < minimum; n++ {
		// A traced phase records spans on every even minute, which
		// includes every hourly archive compaction; the untraced odd
		// minutes between them measure the tracing overhead.
		if tr != nil {
			tr.on.Store(m%2 == 0)
		}
		traced := tr.recording()
		start := time.Now()
		if err := f.minute(ctx, m, tr, &st); err != nil {
			return err
		}
		rep.addMinute(float64(time.Since(start))/1e6, traced)
		m++
		if time.Since(begin) > 3*limit+20*time.Second {
			break
		}
	}
	rep.wallS += time.Since(begin).Seconds()
	if tr != nil {
		tr.on.Store(false)
	}
	rep.triggerMs = append(rep.triggerMs, st.triggerMs...)
	disp := f.plane.Dispatcher().Stats()
	actions := disp.Actions - dispBefore.Actions
	refused := disp.Nacks + disp.Expired - dispBefore.Nacks - dispBefore.Expired
	rep.count("agent.heartbeats", float64(st.beats))
	rep.count("agent.heartbeats_failed", float64(st.beatsFailed))
	rep.count("monitor.triggers", float64(st.triggers))
	rep.count("controller.forecast_triggers", float64(st.forecastTriggers))
	rep.count("controller.decisions", float64(st.decisions))
	rep.count("agent.dispatch_actions", float64(actions))
	rep.count("agent.dispatch_retries", float64(disp.Retries-dispBefore.Retries))
	rep.count("agent.dispatch_failed", float64(refused))
	rep.handled += st.triggers + st.forecastTriggers
	rep.registryDelta(before, snapshot(reg))

	// Output checks: every heartbeat since construction was ingested,
	// no dispatch was refused or abandoned, and the agents agree with
	// the model.
	rep.attempted += st.beats + actions
	rep.failed += st.beatsFailed + refused
	if got, want := f.plane.Coordinator().Heartbeats(), s.hosts*m; got != want || warm.beats+st.beats != want {
		rep.fail("coordinator ingested %d heartbeats, want hosts × minutes = %d", got, want)
	}
	if err := f.plane.Coordinator().Err(); err != nil {
		rep.fail("coordinator error: %v", err)
	}
	if disp.Nacks+disp.Expired > 0 {
		rep.fail("%d dispatches nacked and %d expired on a healthy wire", disp.Nacks, disp.Expired)
	}
	if st.beatsFailed > 0 {
		rep.fail("%d heartbeats failed", st.beatsFailed)
	}
	if err := f.verify(); err != nil {
		rep.fail("landscape check: %v", err)
	}
	if st.decisions == 0 {
		rep.fail("the storm executed no decision")
	}
	return nil
}
