// Command perfbench is the repository benchmark: one command that runs a
// named workload against the served stack (internal/server -> core -> cds
// over TCP loopback) or the simulator stack (sim/engine, sim/memsys,
// dsim/offload, dsim/skiplist on the Table 1 machine), checks every answer
// against a correctness oracle, and prints its metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it runs the traced mode instead, which
// times each layer from outside and prints the per-layer metrics. The last
// line of standard output is always one JSON object with the keys
// correct, attempted, failed and metrics. README.md lists the workloads,
// why each was chosen, and which end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the final output line plus what the
// human-readable report needs.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists every oracle failure found (empty when correct).
	problems []string
}

// set records one metric, in the unit its definition gives.
func (r *result) set(name string, value float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unitOf(name)}
}

// fail records an oracle failure.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// options are one invocation's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// traceOut is the directory the traced mode writes its Chrome
	// trace_event file into.
	traceOut string
}

// workload is one named benchmark input.
type workload struct {
	name string
	run  func(o options) (*result, error)
}

// workloads lists every workload by name.
func workloads() []workload {
	var out []workload
	for _, s := range servedSpecs() {
		s := s
		out = append(out, workload{name: s.name, run: func(o options) (*result, error) { return runServed(s, o) }})
	}
	sc := paperSimSpec()
	out = append(out, workload{name: sc.name, run: func(o options) (*result, error) { return runSim(sc, o) }})
	return out
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run prints.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"}, {"lat_p50_us", "us"}, {"lat_p99_us", "us"},
	{"cpu_us_per_op", "us"}, {"setup_s", "s"}, {"max_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run prints. A layer a
// workload does not exercise reads 0 on that workload.
var perLayer = []metricDef{
	{"error_frac", "frac"},
	{"server.batch_mean", "ops"}, {"core.combiner_batch_mean", "ops"}, {"core.mailbox_depth_mean", "reqs"},
	{"core.apply_p50_ns", "ns"}, {"core.cpu_us_per_op", "us"},
	{"cds.get_ns", "ns"}, {"cds.update_ns", "ns"}, {"cds.insert_ns", "ns"}, {"cds.remove_ns", "ns"},
	{"cds.allocs_per_op", "allocs/op"}, {"cds.restarts_per_op", "count/op"},
	{"codec.ns_per_op", "ns"}, {"tcp.echo_rtt_us", "us"}, {"tcp.echo_cpu_us_per_op", "us"},
	{"ledger.residual_us", "us"},
	{"proc.allocs_per_op", "allocs/op"}, {"proc.gc_cycles", "count"},
	{"client.lat_p999_us", "us"}, {"client.lat_samples", "count"},
	{"engine.dispatches_per_op", "count/op"}, {"engine.host_ns_per_dispatch", "ns"},
	{"memsys.accesses_per_op", "count/op"}, {"memsys.l1_hit_frac", "frac"}, {"memsys.l2_hit_frac", "frac"},
	{"memsys.host_ns_per_access", "ns"},
	{"offload.posted_per_op", "count/op"}, {"offload.retries_per_op", "count/op"},
	{"offload.followups_per_op", "count/op"}, {"sim.cycles", "cycles"},
	{"sim_mops", "Mops/s"}, {"sim_dram_reads_per_op", "reads/op"},
	{"ledger.sim_residual_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// unitOf returns a defined metric's unit.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undefined metric " + name)
}

// finish keeps exactly the metric set the mode promises: every metric of
// the mode's list, 0 for a layer the workload does not exercise, and
// nothing else.
func finish(r *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: r.Metrics[d.name].Value, Unit: d.unit}
	}
	r.Metrics = out
}

func main() {
	o := options{traceOut: filepath.Join(".bench_build", "trace")}
	flag.StringVar(&o.workload, "workload", "", "workload name (see README.md)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision, recorded in the meta line")
	dirty := flag.String("dirty", "unknown", "whether the source tree had uncommitted changes, recorded in the meta line")
	flag.Parse()
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}

	var wl *workload
	var names []string
	for _, w := range workloads() {
		w := w
		names = append(names, w.name)
		if w.name == o.workload {
			wl = &w
		}
	}
	if wl == nil {
		fatalf("unknown --workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}

	meta := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      *traceFlag,
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     *commit,
		"dirty":      *dirty,
	}
	printJSON(map[string]any{"meta": meta})

	r, err := wl.run(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	finish(r, o.trace)
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-28s %16.6f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, p := range r.problems {
		fmt.Printf("ORACLE FAILURE: %s\n", p)
	}
	printJSON(r)
	if !r.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode output: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
