package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json (a test keeps them in
// step): an untraced run prints every endToEnd metric, a traced run every
// perLayer metric, on every workload.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"units_per_s", "1/s"},
	{"unit_us_p50", "us"},
	{"unit_us_p90", "us"},
	{"setup_s", "s"},
	{"alloc_kb_per_unit", "KiB"},
	{"heap_live_mb", "MiB"},
	{"sim_units_per_s", "1/s"},
	{"sim_overhead_pct", "%"},
	{"sim_makespan_mcycles", "Mcycles"},
}

var perLayer = []metricDef{
	// Host clock, from the traced run.
	{"vm.self_us_per_unit", "us"},
	{"vm.ns_per_insn", "ns"},
	{"kernel.self_us_per_unit", "us"},
	{"kernel.ns_per_syscall", "ns"},
	{"monitor.us_per_unit", "us"},
	{"monitor.ns_per_trap", "ns"},
	{"shadow.us_per_unit", "us"},
	{"shadow.ns_per_call", "ns"},
	{"analysis.compile_ms", "ms"},
	{"seccomp.filter_build_ms", "ms"},
	{"core.launch_ms", "ms"},
	{"workload.init_ms", "ms"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_per_kunit", "1/kunit"},
	{"trace.overhead_pct", "%"},
	// Simulated clock, exact.
	{"vm.sim_insns_per_unit", "count"},
	{"kernel.sim_syscalls_per_unit", "count"},
	{"seccomp.sim_bpf_insns_per_syscall", "count"},
	{"seccomp.sim_offload_avoided_per_unit", "count"},
	{"monitor.sim_traps_per_unit", "count"},
	{"monitor.sim_cycles_per_unit", "cycles"},
	{"monitor.sim_fetch_cycles_per_unit", "cycles"},
	{"monitor.sim_unwind_cycles_per_unit", "cycles"},
	{"monitor.sim_ct_cycles_per_unit", "cycles"},
	{"monitor.sim_cf_cycles_per_unit", "cycles"},
	{"monitor.sim_ai_cycles_per_unit", "cycles"},
	{"monitor.sim_sf_cycles_per_unit", "cycles"},
	{"monitor.sim_trap_cycles_p50", "cycles"},
	{"monitor.sim_trap_cycles_p99", "cycles"},
	{"shard.sim_admit_wait_cycles_p50", "cycles"},
	{"shard.sim_admit_wait_cycles_max", "cycles"},
	{"shard.sim_rejects", "count"},
	{"fleet.sim_reload_cycles_mean", "cycles"},
	{"fleet.sim_setup_cycles_per_tenant", "cycles"},
	{"fleet.sim_init_cycles_per_tenant", "cycles"},
	{"fleet.compiles", "count"},
}

// notApplicable marks a metric whose layer the workload does not reach
// from outside; it prints as 0.
const notApplicable = "n/a on this workload"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's figures, notes and correctness failures.
type report struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric value; note says how it was measured (sample
// counts) and is printed beside it. A non-finite value (an empty ratio)
// records 0.
func (r *report) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// fail counts n failures and remembers why.
func (r *report) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// emit prints the selected metric list, human-readable, then the result
// object as the last line. It reports whether the run was correct.
func (r *report) emit(w io.Writer, defs []metricDef) (bool, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			r.fail(1, "metric %s was not measured", d.name)
			continue
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-38s %16.4f %-8s %s\n", d.name, v, d.unit, r.notes[d.name])
	}
	pct := 0.0
	if r.attempted > 0 {
		pct = 100 * float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-38s %16.4f %-8s (%d failed of %d attempted)\n", "failed_pct", pct, "%", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
	out.Failed = r.failed
	out.Correct = r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return out.Correct, err
}

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile[T int64 | uint64 | float64 | time.Duration](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median returns the median of xs without reordering them.
func median[T int64 | uint64 | float64 | time.Duration](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per divides, returning 0 for an empty base.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}
