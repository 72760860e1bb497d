package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"autoglobe/internal/controller"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/simulator"
	"autoglobe/internal/wire"
)

// paperHours is one simulated run of the paper workload: three days, so
// the forecast scan has day profiles to read from the second day on.
const paperHours = 72

// paperConfig is the paper's full-mobility landscape at 1.15x users
// with a 30-minute forecast horizon, the configuration agentd's demo
// mode runs; the seed drives the simulator's load noise.
func paperConfig(seed uint64) simulator.Config {
	cfg := simulator.PaperConfig(service.FullMobility, 1.15)
	cfg.Hours = paperHours
	cfg.Seed = seed
	cfg.ForecastHorizon = 30
	return cfg
}

// minuteClock is handed to the simulator as its fault injector, which
// Step calls first thing every minute: each call closes the previous
// minute and opens the next, so a minute spans one whole Step.
// In a traced phase it switches the tracer on for every other minute.
type minuteClock struct {
	tr    *tracer
	rep   *phaseReport // nil while warming up
	root  int32
	start time.Time
	open  bool
}

func (c *minuteClock) Apply(step int) error {
	c.close()
	if c.tr != nil {
		c.tr.on.Store(c.rep != nil && step%2 == 0)
	}
	c.open = true
	c.start = time.Now()
	c.root = c.tr.begin(stMinute)
	return nil
}

func (c *minuteClock) close() {
	if !c.open {
		return
	}
	c.tr.end(c.root)
	if c.rep != nil {
		c.rep.addMinute(float64(time.Since(c.start))/1e6, c.root >= 0)
	}
	c.open = false
}

// renderEvents flattens a controller message log for comparison.
func renderEvents(evs []controller.Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		d := ""
		if e.Decision != nil {
			d = e.Decision.String()
		}
		out[i] = fmt.Sprintf("%d|%s|%s|%t", e.Minute, d, e.Note, e.Executed)
	}
	return out
}

// paperSeeds is how many simulator seeds one run cycles through. The
// seed decides which minutes carry controller and forecast work, and a
// single seed's share of heavy minutes moves the tail and the
// throughput by a quarter; a cycle of twelve evens that out between
// runs of different --seed.
const paperSeeds = 12

// paperSeed derives the i-th simulator seed of a run; distinct --seed
// values give disjoint sets.
func paperSeed(seed uint64, i int) uint64 { return seed*paperSeeds + uint64(i) }

// paperRef is what an untimed in-process run of one simulator seed, without
// wire, journal or disk archive, produced: the event log and overload
// every measured run of that seed must reproduce.
type paperRef struct {
	events   []string
	overload float64
}

// paperReference runs the reference of one simulator seed.
func paperReference(seed uint64) (paperRef, error) {
	sim, err := simulator.New(paperConfig(seed))
	if err != nil {
		return paperRef{}, err
	}
	res, err := sim.Run()
	if err != nil {
		return paperRef{}, err
	}
	return paperRef{renderEvents(res.Actions), res.TotalOverloadPerDay()}, nil
}

// paperReferences runs the references of every derived seed, procs at
// a time; nothing is timed yet.
func paperReferences(seed uint64) ([]paperRef, error) {
	refs := make([]paperRef, paperSeeds)
	errs := make([]error, paperSeeds)
	next := make(chan int, paperSeeds)
	for i := range refs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for k := 0; k < procs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = paperReference(paperSeed(seed, i))
			}
		}()
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

// paperWorkload runs whole simulated runs over the binary loopback
// with the journal, a tsdb-backed archive and the forecast scan.
type paperWorkload struct {
	refs []paperRef // per derived seed
}

func (w *paperWorkload) phase(work string, seed uint64, seconds float64, traced bool) (*phaseReport, error) {
	if w.refs == nil {
		var err error
		if w.refs, err = paperReferences(seed); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	rep := &phaseReport{root: "simulator.step_other_ms"}
	var tr *tracer
	var reg *obs.Registry
	if traced {
		tr, reg = newTracer(), obs.NewRegistry()
	}
	clock := &minuteClock{tr: tr}
	var before map[string]float64
	limit := time.Duration(seconds * float64(time.Second))
	var begin time.Time
	// Run 0 is the untimed warm-up. The measured runs cycle through the
	// derived seeds and stop at the cycle boundary nearest the wall time,
	// so every run weighs each seed alike.
	for run := 0; !cycleDone(run, time.Since(begin), limit); run++ {
		measured := run > 0
		i := max(0, run-1) % paperSeeds
		ref := w.refs[i]
		if run == 1 {
			before = snapshot(reg)
			clock.rep = rep
			begin = time.Now()
		}
		dir, err := os.MkdirTemp(work, "paper-")
		if err != nil {
			return nil, err
		}
		lb := wire.NewLoopback()
		lb.SetCodec(wire.CodecBinary)
		cfg := paperConfig(paperSeed(seed, i))
		cfg.ArchiveDir = filepath.Join(dir, "archive")
		cfg.Distributed = &simulator.DistributedConfig{
			Transport:       &timedTransport{Transport: lb, tr: tr},
			JournalDir:      filepath.Join(dir, "journal"),
			IngestShards:    procs,
			DispatchWorkers: procs,
			Chaos:           clock,
		}
		cfg.Obs = reg
		start := time.Now()
		sim, err := simulator.New(cfg)
		if err != nil {
			return nil, err
		}
		setup := time.Since(start).Seconds()
		sim.Plane().Dispatcher().Journal().Instrument(reg)
		res, err := sim.Run()
		clock.close()
		if err != nil {
			return nil, err
		}
		if measured {
			rep.wallS += time.Since(start).Seconds()
			rep.setupS = append(rep.setupS, setup)
		}
		w.check(rep, sim, res, ref)
		if measured {
			w.count(rep, sim, res)
		} else {
			// The footprint of a finished run, taken before any span is
			// recorded.
			rep.heapBytes = liveHeap()
		}
		if err := sim.Close(); err != nil {
			return nil, err
		}
		if err := lb.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		rep.hosts = sim.Deployment().Cluster().Len()
	}
	if tr != nil {
		tr.on.Store(false)
	}
	rep.registryDelta(before, snapshot(reg))
	rep.trace = tr
	for _, ref := range w.refs {
		rep.overload += ref.overload / paperSeeds
	}
	return rep, nil
}

// cycleDone reports whether the paper loop stops before run, having
// measured run-1 simulated runs in elapsed: only at a cycle boundary,
// after at least one cycle, and once another cycle would end further
// from the limit than this one.
func cycleDone(run int, elapsed, limit time.Duration) bool {
	if run <= paperSeeds || (run-1)%paperSeeds != 0 {
		return false
	}
	cycles := time.Duration((run - 1) / paperSeeds)
	return elapsed+elapsed/cycles/2 >= limit
}

// check compares one run against the in-process reference of its seed
// and the landscape invariants, and counts its heartbeats and
// dispatches.
func (w *paperWorkload) check(rep *phaseReport, sim *simulator.Simulator, res *simulator.Result, ref paperRef) {
	if got := renderEvents(res.Actions); !slices.Equal(got, ref.events) {
		rep.fail("controller event log differs from the in-process reference (%d events, want %d)", len(got), len(ref.events))
	}
	if got := res.TotalOverloadPerDay(); got != ref.overload {
		rep.fail("overload %.6g min/day, in-process reference %.6g", got, ref.overload)
	}
	if err := sim.CheckInvariants(true); err != nil {
		rep.fail("invariants: %v", err)
	}
	hosts := sim.Deployment().Cluster().Len()
	beats := sim.Plane().Coordinator().Heartbeats()
	disp := sim.Plane().Dispatcher().Stats()
	rep.attempted += hosts*res.Minutes + disp.Actions
	rep.failed += hosts*res.Minutes - beats + disp.Nacks + disp.Expired
	if beats != hosts*res.Minutes {
		rep.fail("coordinator ingested %d heartbeats, want hosts × minutes = %d", beats, hosts*res.Minutes)
	}
	if err := sim.Plane().Coordinator().Err(); err != nil {
		rep.fail("coordinator error: %v", err)
	}
	if disp.Nacks+disp.Expired > 0 {
		rep.fail("%d dispatches nacked and %d expired on a healthy wire", disp.Nacks, disp.Expired)
	}
}

func (w *paperWorkload) count(rep *phaseReport, sim *simulator.Simulator, res *simulator.Result) {
	var triggers int
	for _, n := range res.TriggerCount {
		triggers += n
	}
	disp := sim.Plane().Dispatcher().Stats()
	rep.handled += triggers
	rep.count("agent.heartbeats", float64(sim.Plane().Coordinator().Heartbeats()))
	rep.count("agent.heartbeats_failed", float64(sim.Deployment().Cluster().Len()*res.Minutes-sim.Plane().Coordinator().Heartbeats()))
	rep.count("monitor.triggers", float64(triggers-res.ProactiveTriggers))
	rep.count("controller.forecast_triggers", float64(res.ProactiveTriggers))
	rep.count("controller.decisions", float64(len(res.ExecutedActions())))
	rep.count("agent.dispatch_actions", float64(disp.Actions))
	rep.count("agent.dispatch_retries", float64(disp.Retries))
	rep.count("agent.dispatch_failed", float64(disp.Nacks+disp.Expired))
}
