// Command minutebench measures AutoGlobe's unit of work, one
// control-loop minute, end to end and layer by layer. Each workload is
// a closed loop over the binary wire.Loopback in one process: every
// host's reporter waits for its ack, and each minute starts when the
// previous one has sealed the archive.
//
//	minutebench --workload paper-fm|fleet-1k-storm \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// traces every other minute and prints the per-layer metrics from the
// traced minutes' spans. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the metric definitions and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// procs bounds GOMAXPROCS, the coordinator's ingest shards and the
// dispatcher's workers alike.
var procs = min(2, runtime.NumCPU())

type workload interface {
	// phase builds the workload, warms it up and measures closed-loop
	// minutes for the given wall time, traced or not.
	phase(work string, seed uint64, seconds float64, traced bool) (*phaseReport, error)
}

// workloads maps each name to its definition. The comments say why
// each exists; README.md has the longer version.
func workloads() map[string]workload {
	return map[string]workload{
		// The paper's 19-host SAP landscape: the reproduction's own cost
		// and the only workload where control quality means anything.
		"paper-fm": &paperWorkload{},
		// 1,000 hosts with a rotating hot set: confirmed overloads every
		// minute keep the controller, fuzzy inference, placement,
		// dispatch and journal busy.
		"fleet-1k-storm": &fleetSpec{hosts: 1_000, serverEvery: 10, services: 300, instances: 1000, maxInstances: 4,
			warmup: 150, landscapes: 4, minimum: 200},
	}
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-fm or fleet-1k-storm")
	seed := flag.Uint64("seed", 1, "seed of the workload generator")
	seconds := flag.Float64("seconds", 10, "wall time to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads()[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	out, err := run(w, *name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minutebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minutebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload and prints the human-readable report; the
// returned output is the machine-readable last line.
func run(w workload, name string, seed uint64, seconds float64, traced bool) (*output, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "minutebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	if !traced {
		r, err := w.phase(work, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		m := endToEnd(r)
		printReport(name, seed, r, m)
		return finish(m, r), nil
	}
	r, err := w.phase(work, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	m, err := perLayer(r)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.tsv", name, seed))
	if err := r.trace.write(path, 200_000); err != nil {
		return nil, err
	}
	printReport(name, seed, r, m)
	fmt.Printf("spans: %s (first 200000 of the traced minutes)\n", path)
	return finish(m, r), nil
}

func finish(m map[string]metric, r *phaseReport) *output {
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "minutebench: check failed:", f)
	}
	return &output{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// printReport writes every metric by name and unit, with the sample
// counts behind the percentiles and the report-only metrics.
func printReport(name string, seed uint64, r *phaseReport, m map[string]metric) {
	fmt.Printf("workload %s seed %d: %d hosts, %d minutes measured in %.3f s\n",
		name, seed, r.hosts, r.minutes, r.wallS)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-30s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	n := len(r.minuteMs)
	fmt.Printf("  minute samples: %d untraced (%d beyond p95), %d traced\n", n, beyond(n, 0.95), len(r.tracedMs))
	if t := len(r.triggerMs); t > 0 {
		fmt.Printf("  trigger_p50_ms %.6g ms, trigger_p95_ms %.6g ms over %d HandleTrigger calls (%d beyond p95)\n",
			percentile(r.triggerMs, 0.5), percentile(r.triggerMs, 0.95), t, beyond(t, 0.95))
	}
	if r.overload > 0 {
		fmt.Printf("  overload_min_per_day %.6g min/day\n", r.overload)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  ops_failed_ratio %g (%d failed of %d heartbeats and dispatches)\n", ratio, r.failed, r.attempted)
	fmt.Printf("  setups timed: %d\n", len(r.setupS))
}
