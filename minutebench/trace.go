package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoglobe/internal/controller"
	"autoglobe/internal/wire"
)

// stage names one layer boundary the benchmark times. The driving
// goroutine opens and closes the non-wire stages; wire calls are leaves
// that may also arrive from dispatch worker goroutines.
type stage uint8

const (
	stMinute     stage = iota // one control-loop minute (the root)
	stHeartbeat               // agent.HeartbeatReporter Begin/Sample/Send for one host
	stObserve                 // agent.Coordinator.ObserveServices
	stLiveness                // agent.Coordinator.CheckLiveness
	stTrigger                 // controller.Controller.HandleTrigger
	stProactive               // controller.Controller.Proactive
	stDispatch                // the controller's executor: dispatch to agents + model update
	stMaintain                // archive.Archive.Maintain
	stWireBeat                // wire.Transport.Call carrying a heartbeat
	stWireAction              // wire.Transport.Call carrying an action
	stWireProbe               // wire.Transport.Call carrying a liveness probe
	stWireOther               // any other wire.Transport.Call
	stTraceCost               // the tracer's own envelope sizing, kept out of every layer
	numStages
)

var stageNames = [numStages]string{
	"minute", "agent.heartbeat", "monitor.observe", "monitor.liveness",
	"controller.trigger", "controller.proactive", "agent.dispatch",
	"archive.maintain", "wire.heartbeat", "wire.action", "wire.probe",
	"wire.other", "trace.cost",
}

// span is one timed layer call. Spans of one minute share the minute
// number; parent indexes the enclosing span (-1 for a minute root).
type span struct {
	start, end int64 // nanoseconds since the tracer's epoch
	parent     int32
	minute     int32
	stage      stage
}

// tracer keeps spans in memory while a run is traced and turns them
// into per-stage self times once it ends. A nil or switched-off tracer
// records nothing, so untraced minutes pay one check per layer call.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // recording; switched only between minutes

	mu     sync.Mutex
	spans  []span
	stack  []int32 // open spans of the driving goroutine
	minute int32
	bytes  int64  // encoded wire bytes, request plus reply
	frame  []byte // reused buffer for envelope sizing
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// begin opens a span under the innermost open span of the driving
// goroutine and returns its index for end.
func (t *tracer) begin(st stage) int32 {
	if !t.recording() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	if st == stMinute {
		t.minute++
	}
	t.spans = append(t.spans, span{start: start, parent: parent, minute: t.minute, stage: st})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// leaf records a finished call under the driving goroutine's innermost
// open span; dispatch workers call it while the loop waits inside
// the dispatch span.
func (t *tracer) leaf(st stage, start, end int64) {
	t.mu.Lock()
	t.leafLocked(st, start, end)
	t.mu.Unlock()
}

func (t *tracer) leafLocked(st stage, start, end int64) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, minute: t.minute, stage: st})
}

// sizeEnvelope adds an envelope's binary-frame size to the wire byte
// count and records the sizing itself as trace cost.
func (t *tracer) sizeEnvelope(env *wire.Envelope) {
	if env == nil {
		return
	}
	start := t.now()
	t.mu.Lock()
	if b, err := wire.AppendEnvelope(t.frame[:0], env); err == nil {
		t.bytes += int64(len(b))
		t.frame = b
	}
	t.leafLocked(stTraceCost, start, t.now())
	t.mu.Unlock()
}

// timedTransport wraps the transport handed to the control plane and
// records every call as a wire span.
type timedTransport struct {
	wire.Transport
	tr *tracer
}

func (t *timedTransport) Call(ctx context.Context, node string, env *wire.Envelope) (*wire.Envelope, error) {
	if !t.tr.recording() {
		return t.Transport.Call(ctx, node, env)
	}
	st := stWireOther
	switch env.Type {
	case wire.TypeHeartbeat:
		st = stWireBeat
	case wire.TypeAction:
		st = stWireAction
	case wire.TypeProbe:
		st = stWireProbe
	}
	t.tr.sizeEnvelope(env)
	start := t.tr.now()
	reply, err := t.Transport.Call(ctx, node, env)
	t.tr.leaf(st, start, t.tr.now())
	t.tr.sizeEnvelope(reply)
	return reply, err
}

// timedExecutor wraps the controller's executor (the plane's
// dispatching executor) so every executed decision is a dispatch span.
type timedExecutor struct {
	inner controller.Executor
	tr    *tracer
}

func (e *timedExecutor) Execute(d *controller.Decision) error {
	id := e.tr.begin(stDispatch)
	err := e.inner.Execute(d)
	e.tr.end(id)
	return err
}

// breakdown is what a traced run's spans reduce to.
type breakdown struct {
	minutes  int
	minuteNs int64            // summed minute-root durations
	selfNs   [numStages]int64 // summed self time per stage
	calls    [numStages]int   // spans per stage
	callNs   [numStages]int64 // summed full durations per stage
}

// reduce computes every span's self time: its duration minus the part
// of it that its children cover. Children that overlap (parallel
// dispatch lanes) are clipped against their earlier siblings, so each
// instant of a minute is attributed to exactly one stage and the
// stages' self times add up to the minute's duration.
func (t *tracer) reduce() breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b breakdown
	spans := t.spans
	// effective[i] is span i's duration after clipping against its
	// earlier-starting siblings; covered[i] sums its children's.
	effective := make([]int64, len(spans))
	covered := make([]int64, len(spans))
	// Group span indices by parent (slot 0 holds the minute roots).
	off := make([]int32, len(spans)+2)
	for _, s := range spans {
		off[s.parent+2]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	kids := make([]int32, len(spans))
	fill := append([]int32(nil), off[:len(spans)+1]...)
	for i, s := range spans {
		kids[fill[s.parent+1]] = int32(i)
		fill[s.parent+1]++
	}
	for p := 0; p <= len(spans); p++ {
		group := kids[off[p]:off[p+1]]
		sort.Slice(group, func(a, c int) bool { return spans[group[a]].start < spans[group[c]].start })
		var until int64 = -1 << 62
		for _, k := range group {
			s := spans[k]
			from := max(s.start, until)
			if s.end > from {
				effective[k] = s.end - from
			}
			until = max(until, s.end)
		}
	}
	for i, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += effective[i]
		}
	}
	for i, s := range spans {
		b.selfNs[s.stage] += effective[i] - covered[i]
		b.calls[s.stage]++
		b.callNs[s.stage] += s.end - s.start
		if s.stage == stMinute {
			b.minutes++
			b.minuteNs += s.end - s.start
		}
	}
	return b
}

// write saves the first limit spans as tab-separated lines: minute,
// stage, parent index, start and end in nanoseconds since the epoch.
func (t *tracer) write(path string, limit int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "minute\tstage\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans[:min(limit, len(t.spans))] {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.minute, stageNames[s.stage], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
