package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"autoglobe/internal/obs"
)

// phaseReport is what one measured phase (untraced or traced) of a
// workload observed.
type phaseReport struct {
	hosts     int
	setupS    []float64 // each timed construction
	minuteMs  []float64 // each measured untraced minute
	tracedMs  []float64 // each measured traced minute
	triggerMs []float64 // each HandleTrigger call the loop made in an untraced minute
	minutes   int       // minutes measured, traced or not
	wallS     float64   // wall time of the measured loop
	heapBytes uint64    // live heap after a forced GC at the end
	// entityBytes is the archive's live heap per preallocated entity
	// (traced fleet phases).
	entityBytes float64
	overload    float64 // paper-fm: Result.TotalOverloadPerDay
	handled     int     // HandleTrigger calls: confirmed plus forecast triggers
	// root names the per-layer metric for the minute root's own time.
	root string
	// counts are per-layer totals over the measured minutes.
	counts    map[string]float64
	trace     *tracer
	attempted int
	failed    int
	failures  []string
}

func (r *phaseReport) count(name string, v float64) {
	if r.counts == nil {
		r.counts = make(map[string]float64)
	}
	r.counts[name] += v
}

func (r *phaseReport) addMinute(ms float64, traced bool) {
	if traced {
		r.tracedMs = append(r.tracedMs, ms)
	} else {
		r.minuteMs = append(r.minuteMs, ms)
	}
	r.minutes++
}

func (r *phaseReport) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// snapshot reads an obs registry (nil: nothing instrumented).
func snapshot(reg *obs.Registry) map[string]float64 {
	if reg == nil {
		return nil
	}
	return reg.Snapshot()
}

// family sums every series of a metric family (all label sets).
func family(snap map[string]float64, name string) float64 {
	var v float64
	for k, x := range snap {
		if k == name || strings.HasPrefix(k, name+"{") {
			v += x
		}
	}
	return v
}

// registryDelta records the counters the instrumented layers keep,
// as their growth over the measured minutes.
func (r *phaseReport) registryDelta(before, after map[string]float64) {
	if after == nil {
		return
	}
	d := func(name string) float64 { return family(after, name) - family(before, name) }
	r.count("fuzzy.inferences", d("autoglobe_controller_inference_seconds_count"))
	r.count("fuzzy.infer_s", d("autoglobe_controller_inference_seconds_sum"))
	r.count("journal.appends", d("autoglobe_journal_appends_total"))
	r.count("journal.group_commits", d("autoglobe_journal_group_commits_total"))
	r.count("archive.written_bytes", d("autoglobe_archive_written_bytes_total"))
	r.count("archive.cache_reads", d("autoglobe_archive_cache_reads_total"))
}

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// beyond is how many samples lie above the p-quantile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the gated metrics from an untraced phase.
func endToEnd(r *phaseReport) map[string]metric {
	return map[string]metric{
		"setup_s":       {percentile(r.setupS, 0.5), "s"},
		"minute_p50_ms": {percentile(r.minuteMs, 0.5), "ms"},
		"minute_p95_ms": {percentile(r.minuteMs, 0.95), "ms"},
		"sim_min_per_s": {float64(r.minutes) / r.wallS, "min/s"},
		"heap_mb":       {float64(r.heapBytes) / (1 << 20), "MB"},
	}
}

// perLayer derives the layer metrics from a traced phase: stage times
// from the traced minutes' spans, trigger latency and the tracing
// overhead's reference from the untraced minutes between them. Times
// are per traced minute (ms/min) or per call (us); counts are per
// measured minute.
func perLayer(r *phaseReport) (map[string]metric, error) {
	b := r.trace.reduce()
	if b.minutes != len(r.tracedMs) {
		return nil, fmt.Errorf("traced %d minute spans for %d traced minutes", b.minutes, len(r.tracedMs))
	}
	var sum int64
	for _, ns := range b.selfNs {
		sum += ns
	}
	if sum != b.minuteNs {
		return nil, fmt.Errorf("stage self times add up to %d ns, minutes to %d ns", sum, b.minuteNs)
	}
	mins := float64(b.minutes)
	perMin := func(st stage) float64 { return float64(b.selfNs[st]) / 1e6 / mins }
	perCall := func(st stage) float64 {
		if b.calls[st] == 0 {
			return 0
		}
		return float64(b.callNs[st]) / 1e3 / float64(b.calls[st])
	}
	c := func(name string) float64 { return r.counts[name] / float64(r.minutes) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]metric{
		"agent.heartbeat_ms":           {perMin(stHeartbeat), "ms/min"},
		"agent.heartbeats":             {c("agent.heartbeats"), "count/min"},
		"agent.heartbeats_failed":      {c("agent.heartbeats_failed"), "count/min"},
		"monitor.observe_ms":           {perMin(stObserve), "ms/min"},
		"monitor.triggers":             {c("monitor.triggers"), "count/min"},
		"monitor.liveness_ms":          {perMin(stLiveness), "ms/min"},
		"monitor.probes":               {float64(b.calls[stWireProbe]) / mins, "count/min"},
		"controller.trigger_ms":        {perMin(stTrigger), "ms/min"},
		"controller.decisions":         {c("controller.decisions"), "count/min"},
		"controller.decision_ratio":    {ratio(r.counts["controller.decisions"], float64(r.handled)), "ratio"},
		"controller.trigger_p50_ms":    {percentile(r.triggerMs, 0.5), "ms"},
		"controller.trigger_p95_ms":    {percentile(r.triggerMs, 0.95), "ms"},
		"controller.proactive_ms":      {perMin(stProactive), "ms/min"},
		"controller.forecast_triggers": {c("controller.forecast_triggers"), "count/min"},
		"fuzzy.inferences":             {c("fuzzy.inferences"), "count/min"},
		"fuzzy.infer_us":               {1e6 * ratio(r.counts["fuzzy.infer_s"], r.counts["fuzzy.inferences"]), "us"},
		"agent.dispatch_ms":            {perMin(stDispatch), "ms/min"},
		"agent.dispatch_actions":       {c("agent.dispatch_actions"), "count/min"},
		"agent.dispatch_retries":       {c("agent.dispatch_retries"), "count/min"},
		"agent.dispatch_failed":        {c("agent.dispatch_failed"), "count/min"},
		"journal.appends":              {c("journal.appends"), "count/min"},
		"journal.group_commits":        {c("journal.group_commits"), "count/min"},
		"archive.maintain_ms":          {perMin(stMaintain), "ms/min"},
		"archive.written_bytes":        {c("archive.written_bytes"), "B/min"},
		"archive.cache_reads":          {c("archive.cache_reads"), "count/min"},
		"wire.heartbeat_call_us":       {perCall(stWireBeat), "us"},
		"wire.action_call_us":          {perCall(stWireAction), "us"},
		"wire.probe_call_us":           {perCall(stWireProbe), "us"},
		"wire.bytes":                   {float64(r.trace.bytes) / mins, "B/min"},
		"wire.self_ms":                 {perMin(stWireBeat) + perMin(stWireAction) + perMin(stWireProbe) + perMin(stWireOther), "ms/min"},
		"simulator.step_other_ms":      {0, "ms/min"},
		"bench.loop_ms":                {0, "ms/min"},
		"trace.cost_ms":                {perMin(stTraceCost), "ms/min"},
		"trace.minute_mean_ms":         {float64(b.minuteNs) / 1e6 / mins, "ms"},
		"trace.overhead_ms":            {percentile(r.tracedMs, 0.5) - percentile(r.minuteMs, 0.5), "ms"},
		"mem.bytes_per_host":           {float64(r.heapBytes) / float64(r.hosts), "B"},
		"mem.archive_bytes_per_entity": {r.entityBytes, "B"},
		"quality.overload_min_per_day": {r.overload, "min/day"},
	}
	m[r.root] = metric{perMin(stMinute), "ms/min"}
	return m, nil
}
