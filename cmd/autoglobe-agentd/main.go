// Command autoglobe-agentd runs AutoGlobe's distributed control plane
// as real processes: a coordinator daemon that ingests heartbeats,
// feeds the monitoring pipeline and dispatches the fuzzy controller's
// actions, and per-host agent daemons that join the landscape, report
// load and execute the actions. All traffic is protocol-version-1 JSON
// over HTTP (see internal/wire).
//
// Usage:
//
//	# coordinator over a declared landscape, on a fixed port
//	autoglobe-agentd -mode coordinator -landscape l.xml -listen 127.0.0.1:7700
//
//	# one agent per host, joining by hello (the agent announces its
//	# own ephemeral URL, so only the coordinator needs a known address)
//	autoglobe-agentd -mode agent -host b1 -coordinator http://127.0.0.1:7700 -load 0.4
//
//	# single-process demo: the whole plane over the in-memory loopback,
//	# driving the simulator's distributed mode for a fast-forward run
//	autoglobe-agentd -mode demo -landscape l.xml -hours 24
//
//	# crash-safe coordinator: every action is write-ahead journaled and
//	# a restart recovers in-flight actions under a fresh epoch
//	autoglobe-agentd -mode coordinator -landscape l.xml -journal /var/lib/autoglobe/journal
//
//	# chaos mode: the demo run under a seeded deterministic fault
//	# schedule (coordinator crashes, duplicated and delayed deliveries,
//	# short partitions), with the journal absorbing every crash
//	autoglobe-agentd -mode demo -landscape l.xml -chaos-seed 11
//
//	# durable load archive + proactive control: heartbeat samples are
//	# written through to a segmented on-disk store (internal/tsdb) and
//	# replayed on restart, and the forecast scan raises triggers 45
//	# minutes ahead of predicted overloads
//	autoglobe-agentd -mode coordinator -landscape l.xml -archive-dir /var/lib/autoglobe/archive -forecast 45
//
//	# administrable rules: seed the versioned rule registry from disk
//	# and shadow-evaluate a candidate base beside the active set —
//	# the candidate's decisions are diffed and counted, never executed
//	autoglobe-agentd -mode coordinator -landscape l.xml -rules-dir /etc/autoglobe/rules \
//	    -shadow-rules-dir /etc/autoglobe/candidate -shadow-label overhaul@v2
//
//	# hot standby: watch a running coordinator's health, warm-replay its
//	# journal from shared storage, and promote on lease expiry — the
//	# promotion bumps the journal epoch, so agents fence any straggling
//	# messages from the deposed incarnation
//	autoglobe-agentd -mode standby -standby-of http://127.0.0.1:7700 \
//	    -landscape l.xml -listen 127.0.0.1:7701 -journal /var/lib/autoglobe/journal
//
//	# failover demo: the single-process plane with two hot standbys and
//	# a seeded fault schedule that repeatedly kills and partitions the
//	# leader — watch autoglobe_election_* in the run's metric dump
//	autoglobe-agentd -mode demo -landscape l.xml -standbys 2 -chaos-seed 11
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"autoglobe/internal/agent"
	"autoglobe/internal/archive"
	"autoglobe/internal/chaos"
	"autoglobe/internal/console"
	"autoglobe/internal/controller"
	"autoglobe/internal/forecast"
	"autoglobe/internal/journal"
	"autoglobe/internal/lease"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/rules"
	"autoglobe/internal/simulator"
	"autoglobe/internal/spec"
	"autoglobe/internal/tsdb"
	"autoglobe/internal/wire"
)

// options is the daemon's configuration: every flag, bound once by
// bindFlags and handed whole to the mode that runs.
type options struct {
	mode        string
	landscape   string
	listen      string
	coordinator string
	host        string
	load        float64
	interval    time.Duration
	hours       int
	obsAddr     string
	journalDir  string
	chaosSeed   uint64
	codecName   string
	codec       wire.Codec // parsed from codecName by validateFlags
	shards      int
	workers     int
	archiveDir  string
	forecastMin int
	rulesDir    string
	shadowDir   string
	shadowLabel string
	standbyOf   string
	leaseTTL    int
	standbys    int
	selWorkers  int
	pprof       bool
}

// bindFlags registers every agentd flag on fs, backed by the returned
// options.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.mode, "mode", "demo", "coordinator, agent, standby or demo")
	fs.StringVar(&o.landscape, "landscape", "", "declarative XML landscape (coordinator and demo modes)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7700", "coordinator listen address")
	fs.StringVar(&o.coordinator, "coordinator", "http://127.0.0.1:7700", "coordinator base URL (agent mode)")
	fs.StringVar(&o.host, "host", "", "host name this agent serves (agent mode)")
	fs.Float64Var(&o.load, "load", 0.30, "synthetic CPU load this agent reports (agent mode)")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "wall-clock duration of one control-plane minute")
	fs.IntVar(&o.hours, "hours", 24, "simulated hours (demo mode)")
	fs.StringVar(&o.obsAddr, "obs", "", "demo mode: keep serving /healthz and /autoglobe/v1/{metrics,traces} on this address after the run (coordinator and agent modes always serve them on their wire listener)")
	fs.StringVar(&o.journalDir, "journal", "", "write-ahead action journal directory (coordinator, standby and demo modes): every action is journaled before dispatch, and a restart recovers in-flight actions under a fresh epoch")
	fs.Uint64Var(&o.chaosSeed, "chaos-seed", 0, "demo mode: inject the deterministic fault schedule derived from this seed — coordinator crashes, duplicated and delayed deliveries, short partitions (0 disables)")
	fs.StringVar(&o.codecName, "codec", "json", "wire codec for outgoing envelopes: json (compatible default) or binary (length-prefixed zero-alloc frames; the receiving side negotiates by content type, so mixed landscapes interoperate)")
	fs.IntVar(&o.shards, "ingest-shards", 0, "coordinator/demo modes: heartbeat ingest shard count (0: the built-in default); observation semantics are identical for any count")
	fs.IntVar(&o.workers, "dispatch-workers", 0, "coordinator/demo modes: action fan-out width — how many per-host dispatch lanes run concurrently (0: one per CPU, 1: serial); outcomes are identical for any width, same-host actions stay ordered")
	fs.StringVar(&o.archiveDir, "archive-dir", "", "coordinator/demo modes: back the load archive with the segmented on-disk store in this directory; the full observation history is committed once per minute and replayed on restart")
	fs.IntVar(&o.forecastMin, "forecast", 0, "coordinator/demo modes: proactive-control horizon in minutes — the forecast scan predicts every host's and service's load this far ahead and raises forecast triggers before measured overloads confirm (0 disables)")
	fs.StringVar(&o.rulesDir, "rules-dir", "", "coordinator/demo modes: versioned rule-base directory (<name>@v<N>.rules); every file is validated into the rule registry and the highest version of each base is hot-swapped into the controller before the first minute")
	fs.StringVar(&o.shadowDir, "shadow-rules-dir", "", "coordinator/demo modes: candidate rule-base directory shadow-evaluated beside the active rule set on every live trigger — decisions are diffed and counted in autoglobe_rules_shadow_* metrics, never executed")
	fs.StringVar(&o.shadowLabel, "shadow-label", "candidate", "label the shadow candidate carries in metrics and traces (with -shadow-rules-dir)")
	fs.StringVar(&o.standbyOf, "standby-of", "", "standby mode: base URL of the acting coordinator to watch; when its lease lapses this process promotes itself over the shared -journal directory")
	fs.IntVar(&o.leaseTTL, "lease-ttl", lease.DefaultTTL, "standby/demo modes: leadership lease time-to-live in intervals — a leader silent this long is presumed dead (co-located standbys should stagger this so a deterministic single winner promotes first)")
	fs.IntVar(&o.standbys, "standbys", 0, "demo mode: attach this many hot-standby coordinators and run lease-based leader election (chaos seeds then also kill and partition the leader)")
	fs.IntVar(&o.selWorkers, "selection-workers", 0, "coordinator/demo modes: parallel server-selection width — how many goroutines score candidate hosts per placement decision (0 or 1: serial); selections are byte-identical at any width")
	fs.BoolVar(&o.pprof, "pprof", false, "expose the runtime profiling surface (net/http/pprof) under /debug/pprof/ on the observability listener")
	return o
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	if err := validateFlags(o); err != nil {
		fatal(err)
	}
	var err error
	switch o.mode {
	case "coordinator":
		err = runCoordinator(o)
	case "agent":
		err = runAgent(o)
	case "standby":
		err = runStandby(o)
	case "demo":
		err = runDemo(o)
	}
	if err != nil {
		fatal(err)
	}
}

// mountObs rides the observability surface on a wire HTTP listener:
// every daemon answers /healthz, /autoglobe/v1/metrics and
// /autoglobe/v1/traces next to the wire endpoint. Must be called
// before the transport starts listening.
func mountObs(tr *wire.HTTP, reg *obs.Registry, tracer *obs.Tracer, health *obs.Health) {
	tr.Mount(obs.MetricsPath, obs.MetricsHandler(reg))
	tr.Mount(obs.TracesPath, obs.TracesHandler(tracer))
	tr.Mount(obs.HealthPath, obs.HealthHandler(health))
}

// mountPprof registers the runtime profiling surface under
// /debug/pprof/ via any mux-style mount function (-pprof): CPU and heap
// profiles of a live daemon, e.g. of the server-selection hot path
// under a trigger storm.
func mountPprof(mount func(path string, h http.Handler)) {
	mount("/debug/pprof/", http.HandlerFunc(pprof.Index))
	mount("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	mount("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	mount("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	mount("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
}

// validateFlags rejects flag values and mode-scoped flags given to a
// mode they do not apply to, and resolves o.codec from o.codecName.
func validateFlags(o *options) error {
	mode := o.mode
	if o.chaosSeed != 0 && mode != "demo" {
		return fmt.Errorf("-chaos-seed only applies to -mode demo")
	}
	if o.obsAddr != "" && mode != "demo" {
		return fmt.Errorf("-obs only applies to -mode demo")
	}
	if o.journalDir != "" && mode == "agent" {
		return fmt.Errorf("-journal only applies to -mode coordinator, standby or demo")
	}
	if o.standbyOf != "" && mode != "standby" {
		return fmt.Errorf("-standby-of only applies to -mode standby")
	}
	if o.standbys != 0 && mode != "demo" {
		return fmt.Errorf("-standbys only applies to -mode demo")
	}
	if o.standbys < 0 {
		return fmt.Errorf("-standbys %d must be >= 0", o.standbys)
	}
	if o.leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl %d must be positive", o.leaseTTL)
	}
	if o.archiveDir != "" && mode == "agent" {
		return fmt.Errorf("-archive-dir only applies to -mode coordinator or demo")
	}
	if o.rulesDir != "" && mode == "agent" {
		return fmt.Errorf("-rules-dir only applies to -mode coordinator or demo")
	}
	if o.shadowDir != "" && mode == "agent" {
		return fmt.Errorf("-shadow-rules-dir only applies to -mode coordinator or demo")
	}
	if o.forecastMin < 0 {
		return fmt.Errorf("-forecast %d must be >= 0", o.forecastMin)
	}
	if o.forecastMin > 0 && mode == "agent" {
		return fmt.Errorf("-forecast only applies to -mode coordinator or demo")
	}
	codec, err := wire.ParseCodec(o.codecName)
	if err != nil {
		return fmt.Errorf("-codec: %w", err)
	}
	o.codec = codec
	if o.shards < 0 {
		return fmt.Errorf("-ingest-shards %d must be >= 0", o.shards)
	}
	if o.shards > 0 && mode == "agent" {
		return fmt.Errorf("-ingest-shards only applies to -mode coordinator or demo")
	}
	if o.workers < 0 {
		return fmt.Errorf("-dispatch-workers %d must be >= 0", o.workers)
	}
	if o.workers > 0 && mode == "agent" {
		return fmt.Errorf("-dispatch-workers only applies to -mode coordinator or demo")
	}
	if o.selWorkers < 0 {
		return fmt.Errorf("-selection-workers %d must be >= 0", o.selWorkers)
	}
	if o.selWorkers > 0 && mode == "agent" {
		return fmt.Errorf("-selection-workers only applies to -mode coordinator or demo")
	}
	switch mode {
	case "coordinator", "demo":
		if o.landscape == "" {
			return fmt.Errorf("-mode %s needs -landscape", mode)
		}
	case "standby":
		if o.landscape == "" {
			return fmt.Errorf("-mode standby needs -landscape")
		}
		if o.standbyOf == "" {
			return fmt.Errorf("-mode standby needs -standby-of (the acting coordinator's base URL)")
		}
		if o.journalDir == "" {
			return fmt.Errorf("-mode standby needs -journal (the leader's journal directory on shared storage)")
		}
	case "agent":
		if o.host == "" {
			return fmt.Errorf("-mode agent needs -host")
		}
	default:
		return fmt.Errorf("unknown -mode %q (coordinator, agent, standby or demo)", mode)
	}
	if o.load < 0 || o.load > 1 {
		return fmt.Errorf("-load %g outside [0, 1]", o.load)
	}
	if o.interval <= 0 {
		return fmt.Errorf("-interval %v must be positive", o.interval)
	}
	if mode == "demo" && o.hours <= 0 {
		return fmt.Errorf("-hours %d must be positive", o.hours)
	}
	return nil
}

func loadLandscape(path string) (*spec.Landscape, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spec.Parse(f)
}

// runCoordinator is the central autonomic manager as a daemon: it
// listens for hellos and heartbeats, advances one control-plane minute
// per interval (closing the service observations, probing silent
// hosts), and hands every confirmed trigger to the fuzzy controller,
// whose decisions are dispatched back to the agents.
func runCoordinator(o *options) error {
	l, err := loadLandscape(o.landscape)
	if err != nil {
		return err
	}
	dep, err := l.BuildDeployment()
	if err != nil {
		return err
	}
	tr := wire.NewHTTP()
	tr.DefaultListenAddr = o.listen
	tr.Codec = o.codec
	defer tr.Close()

	// The full observability surface rides on the coordinator's wire
	// listener: metrics from every layer, the decision trace ring, and a
	// health report wired to the ingest error state.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	health := obs.NewHealth()
	health.SetInfo("mode", "coordinator")
	tr.Instrument(reg)
	mountObs(tr, reg, tracer, health)
	if o.pprof {
		mountPprof(tr.Mount)
	}

	params := monitor.PaperParams()
	// A backed archive makes the observation history durable: every
	// heartbeat sample is written through to the segmented store,
	// committed once per control-plane minute, and the next incarnation
	// replays it — the forecaster's day profiles survive restarts.
	var arch *archive.Archive
	startMinute := 0
	if o.archiveDir != "" {
		arch, err = archive.NewBacked(o.archiveDir, 0, tsdb.Options{})
		if err != nil {
			return err
		}
		defer arch.Close()
		// The store's append rule is monotone per entity: a restarted
		// coordinator resumes its minute clock past the restored
		// history instead of replaying minute 0 over it.
		if last, ok := arch.LastMinute(); ok {
			startMinute = last + 1
		}
		fmt.Printf("archive: %s, %d entities restored, resuming at minute %d\n",
			o.archiveDir, len(arch.Entities()), startMinute)
	}
	lms, err := monitor.NewSystem(params, arch)
	if err != nil {
		return err
	}
	lms.Instrument(reg)
	lms.Archive().Instrument(reg)
	coord, err := agent.NewCoordinator("", dep, lms, tr, nil)
	if err != nil {
		return err
	}
	if o.shards > 0 {
		coord.Reshard(o.shards)
	}
	health.SetInfo("codec", o.codec.String())
	health.SetInfo("ingest_shards", fmt.Sprintf("%d", coord.Shards()))
	coord.Instrument(reg)
	coord.Liveness().Instrument(reg)
	coord.OnHello = func(h wire.Hello) error {
		if h.Addr != "" {
			tr.Register(h.Host, h.Addr)
		}
		fmt.Printf("join: %s (PI %g, %d MB) at %s\n", h.Host, h.PerformanceIndex, h.MemoryMB, h.Addr)
		return nil
	}
	disp := agent.NewDispatcher(agent.DispatchConfig{From: coord.Node(), Workers: o.workers}, tr)
	disp.Instrument(reg)
	disp.Trace(tracer)
	health.SetInfo("dispatch_workers", fmt.Sprintf("%d", disp.Workers()))
	var cj *agent.CoordinatorJournal
	if o.journalDir != "" {
		// Crash safety: fsync-on-commit journal, a fresh durable epoch per
		// incarnation, and recovery of the previous incarnation's
		// in-flight actions (answered from agent idempotency caches if
		// they already applied; rejected on route errors until the agents
		// rejoin, which journals the abandonment for the controller to
		// re-plan).
		cj, err = agent.OpenCoordinatorJournal(o.journalDir, journal.Options{})
		if err != nil {
			return err
		}
		defer cj.Close()
		cj.Instrument(reg)
		disp.AttachJournal(cj)
		coord.AttachJournal(cj)
		for h, m := range cj.Down() {
			coord.Liveness().MarkDead(h, m)
		}
		if downs := cj.DownHosts(); len(downs) > 0 {
			fmt.Printf("journal: hosts %v restored as down\n", downs)
		}
		reissued, rerr := cj.Recover(context.Background(), disp)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "journal recovery: %v\n", rerr)
		}
		fmt.Printf("journal: %s at epoch %d, %d in-flight actions re-issued\n",
			o.journalDir, cj.Epoch(), reissued)
		health.SetInfo("epoch", fmt.Sprintf("%d", cj.Epoch()))
	}
	exec := agent.NewDispatchExecutor(dep,
		controller.NewDeploymentExecutor(dep, controller.StickyUsers), disp)
	ctlCfg := controller.Config{SelectionWorkers: o.selWorkers}
	if o.forecastMin > 0 {
		ctlCfg.Forecast = &controller.ForecastConfig{
			Predictor: forecast.New(lms.Archive()),
			Horizon:   o.forecastMin,
			Threshold: params.OverloadThreshold,
			Watching:  lms.Watching,
		}
		fmt.Printf("forecast: proactive scan %d minutes ahead\n", o.forecastMin)
	}
	ctl, err := controller.New(ctlCfg, dep, lms.Archive(), exec)
	if err != nil {
		return err
	}
	ctl.Instrument(reg)
	ctl.Trace(tracer)
	// Rule administration: a versioned registry backs the coordinator's
	// rulePut/ruleGet/ruleList endpoints, -rules-dir seeds it from disk,
	// and journaled activations from the previous incarnation are
	// re-validated, re-swapped and re-activated before the first minute.
	rreg := rules.New(controller.RuleVocabulary)
	ruleSwap := func(e *rules.Entry) error { return ctl.SwapRuleBase(e.Name, e.Base) }
	if o.rulesDir != "" {
		refs, err := agent.LoadRuleDir(rreg, ctl, o.rulesDir)
		if err != nil {
			return err
		}
		fmt.Printf("rules: %d versions loaded from %s\n", len(refs), o.rulesDir)
	}
	coord.AttachRules(rreg, ruleSwap)
	if cj != nil {
		if err := agent.ReplayRules(cj, rreg, ruleSwap); err != nil {
			return err
		}
		if n := len(cj.ActiveRules()); n > 0 {
			fmt.Printf("journal: %d rule activations restored\n", n)
		}
	}
	if o.shadowDir != "" {
		// The candidate rides along every live trigger: its decisions are
		// diffed against the active rule set's and counted, never executed.
		am, sm, err := agent.ShadowOverlayDir(o.shadowDir)
		if err != nil {
			return err
		}
		ctl.Shadow(o.shadowLabel, am, sm)
		fmt.Printf("shadow: candidate %q from %s evaluated alongside the active rules\n", o.shadowLabel, o.shadowDir)
	}
	health.SetInfo("node", coord.Node())
	// Coordinator.Err drains on read, so the minute loop records the
	// drained value here and the health check reports it until the next
	// minute overwrites it.
	var ingestMu sync.Mutex
	var ingestErr error
	setIngest := func(err error) {
		ingestMu.Lock()
		ingestErr = err
		ingestMu.Unlock()
	}
	health.Register("ingest", func() error {
		ingestMu.Lock()
		defer ingestMu.Unlock()
		return ingestErr
	})

	base, _ := tr.Addr(coord.Node())
	fmt.Printf("coordinator listening on %s (%s), one minute every %v\n", o.listen, base, o.interval)
	fmt.Printf("observability: %s%s, %s%s, %s%s\n", base, obs.HealthPath, base, obs.MetricsPath, base, obs.TracesPath)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(o.interval)
	defer ticker.Stop()
	events := 0
	for minute := startMinute; ; minute++ {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
		}
		ingest := coord.Err()
		setIngest(ingest)
		if ingest != nil {
			fmt.Fprintf(os.Stderr, "ingest: %v\n", ingest)
		}
		if err := coord.ObserveServices(minute); err != nil {
			return err
		}
		dead, recovered := coord.CheckLiveness(ctx, minute)
		for _, h := range dead {
			fmt.Printf("minute %d: host %s confirmed dead\n", minute, h)
		}
		for _, h := range recovered {
			fmt.Printf("minute %d: host %s recovered\n", minute, h)
		}
		for _, tg := range coord.TakeTriggers() {
			if _, err := ctl.HandleTrigger(*tg); err != nil {
				fmt.Fprintf(os.Stderr, "trigger %s(%s): %v\n", tg.Kind, tg.Entity, err)
			}
		}
		for _, tg := range ctl.Proactive(minute) {
			if _, err := ctl.HandleTrigger(tg); err != nil {
				fmt.Fprintf(os.Stderr, "forecast trigger %s(%s): %v\n", tg.Kind, tg.Entity, err)
			}
		}
		// Seal the minute in the backed archive (group commit +
		// downsampling); a no-op for the in-memory archive.
		if err := lms.Archive().Maintain(minute); err != nil {
			fmt.Fprintf(os.Stderr, "archive maintain: %v\n", err)
		}
		for _, e := range ctl.Events()[events:] {
			fmt.Printf("minute %d: %s\n", minute, renderEvent(e))
			events++
		}
		st := disp.Stats()
		fmt.Printf("minute %d: %d heartbeats, %d actions (%d retries, %d nacks)\n",
			minute, coord.Heartbeats(), st.Actions, st.Retries, st.Nacks)
	}
}

func renderEvent(e controller.Event) string {
	if e.Decision != nil {
		return fmt.Sprintf("%s [executed=%v] %s", e.Decision, e.Executed, e.Note)
	}
	return e.Note
}

// runAgent is the per-host daemon: it binds an ephemeral port, joins
// the landscape by hello (announcing its own URL, so only the
// coordinator needs a well-known address), and then reports a heartbeat
// per interval with the configured synthetic load spread over whatever
// instances the coordinator has started here.
func runAgent(o *options) error {
	tr := wire.NewHTTP()
	tr.Codec = o.codec
	defer tr.Close()
	// The agent serves the same observability surface as the
	// coordinator on its own listener: wire-call metrics plus a health
	// report naming the host (no tracer — traces are controller-side).
	reg := obs.NewRegistry()
	health := obs.NewHealth()
	health.SetInfo("mode", "agent")
	health.SetInfo("host", o.host)
	tr.Instrument(reg)
	mountObs(tr, reg, nil, health)
	if o.pprof {
		mountPprof(tr.Mount)
	}
	tr.Register(agent.CoordinatorNode, o.coordinator)
	a, err := agent.NewAgent(o.host, agent.CoordinatorNode, tr)
	if err != nil {
		return err
	}
	base, _ := tr.Addr(o.host)
	fmt.Printf("observability: %s%s, %s%s\n", base, obs.HealthPath, base, obs.MetricsPath)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Joining retries forever with a capped exponential backoff: an agent
	// started before its coordinator — or re-pointed at a standby that is
	// still promoting — keeps knocking, quickly at first, then settles at
	// the cap instead of hammering a recovering leader.
	hello := wire.Hello{Host: o.host, Addr: base}
	backoff := o.interval / 4
	if backoff <= 0 {
		backoff = o.interval
	}
	maxBackoff := 8 * o.interval
	for {
		err := a.SendHello(ctx, hello)
		if err == nil {
			break
		}
		fmt.Fprintf(os.Stderr, "hello: %v (retrying in %v)\n", err, backoff)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	fmt.Printf("agent %s at %s joined %s, heartbeat every %v\n", o.host, base, o.coordinator, o.interval)

	ticker := time.NewTicker(o.interval)
	defer ticker.Stop()
	rep := a.Reporter()
	// A transiently lost heartbeat is redelivered within the interval
	// (two quick retries), and an outage that outlives the retries parks
	// the minute in the reporter's ring for the next successful send —
	// the coordinator's day profiles stay gap-free across a failover.
	rep.SetRetry(2, o.interval/16, nil)
	var ids []string
	for minute := 0; ; minute++ {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
		}
		// The reporter coalesces the minute's instance samples into one
		// reusable envelope (agent.HeartbeatReporter): the steady-state
		// heartbeat costs no allocations beyond the process-table
		// snapshot.
		rep.Begin(minute, o.load, 0)
		procs := a.Instances()
		ids = ids[:0]
		for id := range procs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			rep.Sample(id, procs[id], o.load/float64(len(ids)))
		}
		if err := rep.Send(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "heartbeat %d: %v\n", minute, err)
		}
	}
}

// runStandby is the hot-standby coordinator daemon: it checks the
// acting leader's health endpoint once per interval, warm-replays the
// leader's journal from shared storage so its view of the in-flight
// actions stays current, and — when the leader has been unreachable
// for the lease TTL — promotes itself by running the full coordinator
// over the same journal directory. The promotion reopens the journal
// under a bumped epoch, so the agents' epoch guard fences any
// straggling messages from the deposed incarnation; safety rests on
// that fencing, the lease only decides when to move. The standby's
// -listen address should sit behind the shared coordinator address
// (VIP or DNS) so the agents' hello retry reconnects them, and
// co-located standbys should stagger -lease-ttl so exactly one
// promotes first.
func runStandby(o *options) error {
	tracker := lease.NewTracker(o.leaseTTL)
	client := &http.Client{Timeout: o.interval / 2}
	healthURL := o.standbyOf + obs.HealthPath
	check := func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, healthURL, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("leader unhealthy: %s", resp.Status)
		}
		return nil
	}

	fmt.Printf("standby: watching %s, lease TTL %d intervals of %v, journal %s\n",
		o.standbyOf, tracker.TTL(), o.interval, o.journalDir)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(o.interval)
	defer ticker.Stop()
	var lastEpoch uint64
	lastPending := -1
	for tick := 0; ; tick++ {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
		}
		if err := check(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "standby: leader check: %v\n", err)
		} else {
			tracker.Renew(tick, 0)
		}
		// Follow the leader's durable state between checks: the replay is
		// read-only and torn-tail tolerant, so it is safe against a leader
		// that is still appending.
		if ls, err := agent.WarmReplay(o.journalDir); err != nil {
			fmt.Fprintf(os.Stderr, "standby: warm replay: %v\n", err)
		} else if ls.Epoch != lastEpoch || len(ls.Pending) != lastPending {
			fmt.Printf("standby: following epoch %d, %d in-flight actions, %d hosts down\n",
				ls.Epoch, len(ls.Pending), len(ls.Down))
			lastEpoch, lastPending = ls.Epoch, len(ls.Pending)
		}
		if !tracker.Expired(tick) {
			continue
		}
		stop() // release the signal context; the coordinator installs its own
		fmt.Printf("standby: lease expired after %d silent intervals — promoting over %s\n",
			tracker.TTL(), o.journalDir)
		return runCoordinator(o)
	}
}

// runDemo fast-forwards the whole distributed plane in one process: the
// declared landscape runs through the simulator's distributed mode over
// the in-memory loopback, and the run ends with the control-plane panel
// and the usual result summary.
func runDemo(o *options) error {
	l, err := loadLandscape(o.landscape)
	if err != nil {
		return err
	}
	tr := wire.NewLoopback()
	tr.SetCodec(o.codec)
	defer tr.Close()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	jdir := o.journalDir
	if (o.chaosSeed != 0 || o.standbys > 0) && jdir == "" {
		// Crash injections need a journal to recover from (an unjournaled
		// chaos run would die at the first crash), and standby
		// coordinators warm-replay the leader's journal directory.
		tmp, err := os.MkdirTemp("", "autoglobe-journal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		jdir = tmp
	}
	var drv *chaos.Driver
	sim, err := simulator.FromLandscapeConfig(l, func(c *simulator.Config) {
		c.Hours = o.hours
		c.ArchiveDir = o.archiveDir
		c.ForecastHorizon = o.forecastMin
		c.Controller.SelectionWorkers = o.selWorkers
		c.RulesDir = o.rulesDir
		c.ShadowRulesDir = o.shadowDir
		c.ShadowLabel = o.shadowLabel
		dc := &simulator.DistributedConfig{Transport: tr, JournalDir: jdir, IngestShards: o.shards, DispatchWorkers: o.workers, Standbys: o.standbys, LeaseTTL: o.leaseTTL}
		if o.chaosSeed != 0 {
			hosts := make([]string, 0, len(l.Servers))
			for _, s := range l.Servers {
				hosts = append(hosts, s.Name)
			}
			drv = chaos.NewDriver(chaos.NewPlan(o.chaosSeed, o.hours*60, hosts, chaos.DefaultProfile()), tr)
			drv.Instrument(reg)
			dc.Chaos = drv
		}
		c.Distributed = dc
		c.Obs = reg
		c.Tracer = tracer
	})
	if err != nil {
		return err
	}
	if drv != nil {
		drv.Crash = func() error {
			_, err := sim.Plane().CrashCoordinator(context.Background())
			return err
		}
		if e := sim.Plane().Election(); e != nil {
			// With standbys attached, crash injections become leader kills:
			// a standby promotes after the lease TTL instead of the same
			// incarnation restarting in place.
			drv.Crash = nil
			drv.KillLeader = func(step int) (bool, error) { return e.KillLeader(step) }
			drv.Leader = e.LeaderNode
		}
		fmt.Printf("chaos: seed %d schedules %d injections over %d minutes\n",
			o.chaosSeed, drv.Remaining(), o.hours*60)
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}
	// Seal the backed archive cleanly; a no-op without -archive-dir.
	defer sim.Close()
	if drv != nil {
		fmt.Printf("chaos: applied %v\n", drv.Stats())
		if cj := sim.Plane().Dispatcher().Journal(); cj != nil {
			fmt.Printf("journal: final epoch %d (initial open + one per crash or takeover)\n", cj.Epoch())
		}
		if err := sim.CheckInvariants(true); err != nil {
			return fmt.Errorf("post-chaos invariant check: %w", err)
		}
		fmt.Println("invariants: landscape constraints hold after the fault schedule")
	}
	if e := sim.Plane().Election(); e != nil {
		fmt.Printf("election: leader %s, %d takeovers, %d fenced depositions\n",
			e.LeaderNode(), e.Takeovers(), e.FencedDepositions())
	}
	fmt.Println(console.PlaneView(sim.Deployment(), sim.Plane()))
	fmt.Println()
	fmt.Println(console.ServerView(sim.Deployment(), sim.Archive()))
	fmt.Println()
	fmt.Println(console.ObsView(reg, tracer, 10))
	fmt.Println()
	fmt.Println(res)
	if res.DemotedHosts > 0 || res.RepooledHosts > 0 {
		fmt.Printf("demoted %d hosts, re-pooled %d\n", res.DemotedHosts, res.RepooledHosts)
	}
	if o.obsAddr == "" {
		return nil
	}
	// -obs keeps the finished run inspectable: the metrics, traces and
	// health of the fast-forwarded plane stay scrapeable until
	// interrupted.
	health := obs.NewHealth()
	health.SetInfo("mode", "demo")
	mux := obs.Handler(reg, tracer, health)
	if o.pprof {
		mountPprof(func(p string, h http.Handler) { mux.Handle(p, h) })
	}
	srv := &http.Server{
		Addr:              o.obsAddr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	ln, err := net.Listen("tcp", o.obsAddr)
	if err != nil {
		return err
	}
	fmt.Printf("serving observability on http://%s (%s, %s, %s) — ^C to stop\n",
		ln.Addr(), obs.HealthPath, obs.MetricsPath, obs.TracesPath)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		_ = srv.Close()
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autoglobe-agentd:", err)
	os.Exit(1)
}
