// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints every
// metric by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 they are the per-layer ones, measured by a separate
// traced run that times calls into each layer's public functions from this
// package's own code. See README.md for the workloads and the metric map.
//
// Run it through run.sh, which builds it and the daemons it drives:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every workload reports with tracing off. Each
// workload maps them onto its own unit of work (README.md, "Metric map").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
}

// perLayer are the metrics the traced run reports. Every workload reports
// all of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	// campaign
	{"abtest.draw_us", "us"},
	{"abtest.env_us", "us"},
	{"abr.decide_ns", "ns"},
	{"abr.decisions", "count"},
	{"batch.step_self_us", "us"},
	{"campaign.fold_us", "us"},
	{"campaign.report_ms", "ms"},
	{"campaign.peak_pending_shards", "count"},
	{"campaign.alloc_kb_per_session", "KiB"},
	{"player.retries", "count"},
	{"player.degrades", "count"},
	{"faults.injected", "count"},
	// origin_http
	{"gen.late_ms_p99", "ms"},
	{"http.client.queue_us_p99", "us"},
	{"http.client.conn_reuse_ratio", "ratio"},
	{"http.client.ttfb_us_p50", "us"},
	{"http.client.ttfb_us_p99", "us"},
	{"http.client.body_us_p50", "us"},
	{"http.client.body_us_p99", "us"},
	{"dash.serve_us_p50", "us"},
	{"dash.serve_us_p99", "us"},
	{"origin.cpu_us_per_req", "us"},
	{"gen.cpu_us_per_req", "us"},
	// fleet
	{"collect.onevent_ns", "ns"},
	{"collect.frames", "count"},
	{"collect.retries", "count"},
	{"collect.dropped", "count"},
	{"collect.ingest_us", "us"},
	{"collect.admit_self_us", "us"},
	{"archive.append_us_p50", "us"},
	{"archive.append_us_p99", "us"},
	{"archive.seal_ms", "ms"},
	{"archive.scan_ms", "ms"},
	{"archive.aggregate_ms", "ms"},
	{"archive.tail_scan_ms", "ms"},
	{"archive.bytes_per_event", "B"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median. A setup takes 0.1–0.2 s, mostly process start and page faults:
// as the median of 3, setup_s spread by a quarter to a third across ten
// runs on a shared 2-CPU machine.
const setupReps = 9

// workload is one named set of inputs.
type workload struct {
	name string
	// run measures the end-to-end metrics with tracing off; traced
	// measures the per-layer ones.
	run, traced func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"campaign", runCampaign, tracedCampaign},
	{"origin_http", runOrigin, tracedOrigin},
	{"fleet", runFleet, tracedFleet},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: its options, what it measured and what its
// checks found.
type bench struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding the dashserver and bbacollect builds
	work     string // scratch directory for stores, spans and child logs

	env envRecord
	tr  *tracer // nil with tracing off

	attempted, failed int64
	problems          []string
	values            map[string]float64
	details           map[string]metric
}

// errInvalid marks a run whose load generator fell behind its schedule: its
// numbers measure the generator, not the program, so none are reported.
var errInvalid = errors.New("generator fell behind its schedule")

// set records one BENCHMARK.json metric.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// detail records a workload-specific metric for the detail line.
func (b *bench) detail(name, unit string, v float64) { b.details[name] = metric{v, unit} }

// check records a failed correctness check; the run reports correct=false.
func (b *bench) check(err error) {
	if err != nil {
		b.problems = append(b.problems, err.Error())
	}
}

// budget returns the measuring time the run was given.
func (b *bench) budget() time.Duration {
	return time.Duration(b.seconds) * time.Second
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	b := &bench{values: map[string]float64{}, details: map[string]metric{}}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&b.workload, "workload", "", "workload to run: campaign, origin_http or fleet")
	fs.Int64Var(&b.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.IntVar(&b.seconds, "seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&b.bin, "bin", "", "directory holding the dashserver and bbacollect builds")
	fs.StringVar(&b.work, "work", "", "scratch directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	b.trace = *trace == 1
	if err := b.runMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func (b *bench) runMain() error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == b.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", b.workload)
	}
	if b.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if b.bin == "" || b.work == "" {
		return fmt.Errorf("-bin and -work are required (run through run.sh)")
	}
	// The generator shares the machine with the program under test: at
	// most 2 threads, and never more than the machine has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// The generator holds its inputs (tens of MB of journal and plan) for
	// the whole run; at the default GOGC its collections land in some
	// rounds and not others. The daemons keep their own defaults.
	debug.SetGCPercent(400)
	spansDir := filepath.Join(b.work, "spans")
	b.work = filepath.Join(b.work, fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.RemoveAll(b.work); err != nil {
		return err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if b.env, err = newEnvRecord(b.seed, root); err != nil {
		return err
	}
	b.env.Workload = b.workload
	if b.trace {
		b.tr = newTracer()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	run := w.run
	if b.trace {
		run = w.traced
	}
	runErr := run(ctx, b)
	b.env.Valid = runErr == nil
	if errors.Is(runErr, errInvalid) {
		b.env.Reason = runErr.Error()
	}
	printJSON(map[string]any{"env": b.env})
	if runErr != nil {
		return runErr
	}
	if b.tr != nil {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.tr.write(path, b.env); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
		b.set("trace.spans", float64(len(b.tr.spans)))
	}
	return b.report()
}

// report prints the detail line and then the result line.
func (b *bench) report() error {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if !ok {
			if !b.trace {
				return fmt.Errorf("workload %s did not measure %s", b.workload, d.Name)
			}
			v = 0 // a layer this workload does not exercise
		}
		res.Metrics[d.Name] = metric{v, d.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", b.workload)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	printJSON(map[string]any{"detail": b.details})
	printJSON(res)
	return nil
}

// printJSON writes v as one line of standard output.
func printJSON(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings are printed
	}
	fmt.Println(string(out))
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
