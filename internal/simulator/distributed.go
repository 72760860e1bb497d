package simulator

import (
	"context"
	"fmt"
	"math"

	"autoglobe/internal/agent"
	"autoglobe/internal/cluster"
	"autoglobe/internal/journal"
	"autoglobe/internal/monitor"
	"autoglobe/internal/wire"
)

// Injector schedules fault injections against a distributed run. The
// chaos package's Driver implements it; the interface keeps the
// simulator from depending on the fault scheduler (the simulator only
// promises to call Apply at every minute boundary, before any
// heartbeat or dispatch of the minute).
type Injector interface {
	// Apply fires every injection scheduled at or before the step. An
	// error aborts the run.
	Apply(step int) error
}

// DistributedConfig runs the simulation over the real control plane
// instead of in-process function calls: every host gets an agent, the
// load observations travel as heartbeat messages to the coordinator,
// and every controller decision is dispatched to the affected host
// agents (with retries, idempotency and compensation) before it is
// applied to the model. With a fault-free transport the run is
// byte-identical to the in-process simulation — same triggers, same
// decisions, same action log — which is the correctness argument for
// the whole wire layer. With faults injected (drops, latency,
// partitions on a wire.Loopback) the run exercises the failure
// machinery: lost heartbeats feed the hysteresis liveness detector,
// dead hosts are demoted and their services restarted elsewhere,
// healed partitions re-pool the host.
type DistributedConfig struct {
	// Transport carries heartbeats, actions and probes (required).
	// wire.NewLoopback() keeps the run deterministic; wire.NewHTTP
	// moves the same bytes over real sockets.
	Transport wire.Transport
	// Dispatch tunes the action dispatcher (timeouts, retry budget,
	// backoff). The zero value uses the dispatcher defaults.
	Dispatch agent.DispatchConfig
	// HeartbeatTimeoutMinutes is how long a host may stay silent before
	// the coordinator probes it (default 2, the paper's heartbeat
	// timeout).
	HeartbeatTimeoutMinutes int
	// DeadAfter is the number of consecutive missed probes before a
	// silent host is declared dead and demoted (default 2).
	DeadAfter int
	// AliveAfter is the number of consecutive beats a demoted host must
	// deliver before it is re-pooled (default 2).
	AliveAfter int
	// JournalDir, when non-empty, makes the coordinator crash-safe: a
	// write-ahead action journal is opened (or recovered) there before
	// the run starts, every dispatched action is journaled ahead of the
	// transport, and agents fence superseded coordinator epochs. See
	// agent.Plane.AttachJournal. Commits are not fsynced: the simulated
	// crash model is process death, not power loss.
	JournalDir string
	// Chaos, when set, injects faults at every minute boundary — before
	// any heartbeat or dispatch of the minute, so a coordinator crash
	// never lands mid-transaction. See the chaos package.
	Chaos Injector
	// Standbys, when positive, attaches that many hot-standby
	// coordinators (requires JournalDir): the plane runs lease-based
	// leader election, a killed or isolated leader is replaced after
	// the lease TTL, and agents buffer their heartbeat minutes through
	// the leaderless window. See agent.Election.
	Standbys int
	// LeaseTTL is the leadership lease time-to-live in minutes
	// (0: lease.DefaultTTL).
	LeaseTTL int
	// DispatchWorkers is the dispatcher's batch fan-out width (0: the
	// dispatcher default, one worker per CPU; 1: serial dispatch). Like
	// IngestShards it is purely a throughput knob — per-host lanes and
	// submission-order results keep runs byte-identical for any width.
	// Shorthand for Dispatch.Workers; a non-zero Dispatch.Workers wins.
	DispatchWorkers int
	// IngestShards is the coordinator's heartbeat ingest shard count
	// (0: the agent package default). Runs are byte-identical for any
	// shard count — the minute-boundary merge fixes the observation
	// order — so this is purely a concurrency/throughput knob for
	// large landscapes.
	IngestShards int
}

func (dc *DistributedConfig) timeout() int {
	if dc.HeartbeatTimeoutMinutes <= 0 {
		return 2
	}
	return dc.HeartbeatTimeoutMinutes
}

func (dc *DistributedConfig) deadAfter() int {
	if dc.DeadAfter <= 0 {
		return 2
	}
	return dc.DeadAfter
}

func (dc *DistributedConfig) aliveAfter() int {
	if dc.AliveAfter <= 0 {
		return 2
	}
	return dc.AliveAfter
}

// buildPlane wires the control plane for a distributed run. The caller
// wraps the model executor with the plane's dispatching layer, so
// hosts acknowledge before the model changes.
func (s *Simulator) buildPlane(dc *DistributedConfig, lms *monitor.System) error {
	if dc.Transport == nil {
		return fmt.Errorf("simulator: distributed mode needs a transport")
	}
	live := monitor.NewLivenessHysteresis(dc.timeout(), dc.deadAfter(), dc.aliveAfter())
	dispatch := dc.Dispatch
	if dispatch.Workers == 0 {
		dispatch.Workers = dc.DispatchWorkers
	}
	plane, err := agent.NewPlane(agent.PlaneConfig{
		Transport:    dc.Transport,
		Dispatch:     dispatch,
		Liveness:     live,
		IngestShards: dc.IngestShards,
	}, s.dep, lms)
	if err != nil {
		return err
	}
	s.plane = plane
	s.lostHosts = make(map[string]cluster.Host)
	s.everDemoted = make(map[string]bool)
	s.everCrashed = make(map[string]bool)
	s.chaos = dc.Chaos
	if dc.JournalDir != "" {
		if _, _, err := plane.AttachJournal(context.Background(), dc.JournalDir,
			journal.Options{NoSync: true}); err != nil {
			return err
		}
	}
	if dc.Standbys > 0 {
		if dc.JournalDir == "" {
			return fmt.Errorf("simulator: standby coordinators need a journal directory")
		}
		if _, err := plane.AttachStandbys(dc.Standbys, agent.ElectionConfig{TTL: dc.LeaseTTL}); err != nil {
			return err
		}
	}
	return nil
}

// Plane exposes the control plane of a distributed run (nil otherwise).
func (s *Simulator) Plane() *agent.Plane { return s.plane }

// observeDistributed is the distributed twin of observe: the same load
// numbers leave each host as a heartbeat message, the coordinator's
// unchanged monitor pipeline turns them into confirmed triggers, and
// silent hosts are probed, demoted when dead and re-pooled when healed.
//
// Ordering replicates the in-process loop exactly — hosts in cluster
// order, then services in catalog order (the coordinator closes the
// minute in catalog order and sums instance samples in instance-ID
// order, the order the in-process loop iterates) — so with a fault-free
// transport the trigger stream is byte-identical.
func (s *Simulator) observeDistributed(minute int) ([]*monitor.Trigger, error) {
	ctx := context.Background()
	election := s.plane.Election()
	if election != nil {
		// The election ticks before the minute's reports: a takeover's
		// announcement redirects the reporters, so the backlog they
		// buffered through the leaderless window drains to the new
		// leader within the same minute it is elected.
		if err := election.Tick(ctx, minute); err != nil {
			return nil, err
		}
	}
	coord := s.plane.Coordinator()

	for _, hostName := range s.dep.Cluster().Names() {
		raw, mem := s.hostRaw(hostName)
		rep, ok := s.plane.Reporter(hostName)
		if !ok {
			return nil, fmt.Errorf("simulator: no agent attached for host %q", hostName)
		}
		// The reporter batches the minute's instance samples into one
		// reusable envelope — the steady-state heartbeat path allocates
		// nothing (see agent.HeartbeatReporter).
		rep.Begin(minute, math.Min(1, raw), mem)
		for _, inst := range s.dep.InstancesOn(hostName) {
			rep.Sample(inst.ID, inst.Service, s.instanceLoad(inst))
		}
		hbCtx, cancel := context.WithTimeout(ctx, s.plane.HeartbeatTimeout)
		// A delivery failure is not a run error: a missed heartbeat is
		// exactly the signal the liveness detector consumes.
		_ = rep.Send(hbCtx)
		cancel()
	}
	if election != nil && !election.LeaderAlive() {
		// Leaderless minute: the reports above failed and sit buffered in
		// the agents; there is no coordinator to merge, probe or trigger.
		// The next takeover replays the backlog as if the minute had been
		// observed on time.
		return nil, nil
	}
	// Ingestion errors (a corrupt message, an archive failure) are
	// swallowed into timeouts on the agent side; surface them here.
	if err := coord.Err(); err != nil {
		return nil, err
	}
	if err := coord.ObserveServices(minute); err != nil {
		return nil, err
	}

	dead, recovered := coord.CheckLiveness(ctx, minute)
	for _, host := range dead {
		if err := s.demoteHost(host, minute); err != nil {
			return nil, err
		}
	}
	for _, host := range recovered {
		if err := s.repoolHost(host); err != nil {
			return nil, err
		}
	}

	triggers := coord.TakeTriggers()
	for _, tr := range triggers {
		s.res.TriggerCount[tr.Kind]++
	}
	return triggers, nil
}

// demoteHost removes a dead host from the pool: its instances are gone
// with it (their sessions are remembered), the monitor registration is
// cleared (liveness keeps tracking the host so a healed partition can
// re-pool it), and the controller restarts the lost services elsewhere,
// restoring the orphaned sessions onto the replacements.
func (s *Simulator) demoteHost(host string, minute int) error {
	insts := s.dep.InstancesOn(host)
	lost := make([]crashInfo, 0, len(insts))
	lostServices := make([]string, 0, len(insts))
	for _, inst := range insts {
		lost = append(lost, crashInfo{
			service: inst.Service, host: inst.Host,
			users: inst.Users, priority: inst.Priority,
		})
		lostServices = append(lostServices, inst.Service)
		// The host's failure is handled here, not by the per-instance
		// self-healing path.
		delete(s.crashed, inst.ID)
		s.liveness.Forget(inst.ID)
		if err := s.dep.Stop(inst.ID, true); err != nil {
			return err
		}
	}
	if h, ok := s.dep.Cluster().Host(host); ok {
		s.lostHosts[host] = h
		if err := s.dep.Cluster().Remove(host); err != nil {
			return err
		}
	}
	// The dead host's agent was never told to stop anything — its process
	// table keeps the orphans (a real blade would be rebooted before
	// re-pooling). The invariant checker exempts it permanently.
	s.everDemoted[host] = true
	s.plane.Coordinator().Forget(host)
	s.res.DemotedHosts++

	if s.cfg.DisableController {
		return nil
	}
	decisions, err := s.ctl.HandleHostFailure(host, lostServices, minute)
	if err != nil {
		return err
	}
	for i, d := range decisions {
		if d == nil {
			s.res.FailedRestarts++
			continue
		}
		info := lost[i]
		for _, inst := range s.dep.InstancesOf(info.service) {
			if inst.Host == d.TargetHost {
				inst.Users += info.users
				inst.Priority = info.priority
				break
			}
		}
		s.res.Restarts++
	}
	return nil
}

// repoolHost re-admits a demoted host after its recovery streak: the
// host rejoins the pool empty (its old instances were restarted
// elsewhere), its load series is padded for the minutes it was out, and
// its resumed heartbeats re-register it with the monitor.
func (s *Simulator) repoolHost(host string) error {
	h, ok := s.lostHosts[host]
	if !ok {
		return nil // flap absorbed before demotion; nothing to re-pool
	}
	delete(s.lostHosts, host)
	if err := s.dep.Cluster().Add(h); err != nil {
		return err
	}
	for len(s.res.HostLoad[host]) < s.res.Minutes {
		s.res.HostLoad[host] = append(s.res.HostLoad[host], 0)
	}
	s.res.RepooledHosts++
	return nil
}
