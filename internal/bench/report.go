package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"bastion/internal/obs/perf"
)

// Experiment is one table of the evaluation: Run measures it at the given
// per-measurement unit count.
type Experiment struct {
	Name string
	Run  func(units int) (*Table, error)
}

// Experiments is the evaluation report, in document order. Adding an
// experiment is one entry here: its section, its artifact metrics and its
// bastion-bench -exp name all follow.
var Experiments = []Experiment{
	{"fig3", figure3},
	{"table3", table3},
	{"table4", table4},
	{"table5", table5},
	{"table6", table6},
	{"table7", table7},
	{"filter", filterAblation},
	{"sf", sfAblation},
	{"offload", offloadAblation},
	{"refine", refineAblation},
	{"bside", bsideAblation},
	{"obs", obsAblation},
	{"fleet", fleetScaling},
	{"extras", extras},
	{"defenses", defenseComparison},
}

// Lookup returns the registered experiment with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Report bundles the tables of one report run.
type Report struct {
	Units  int
	Tables []*Table
	// Timings records each experiment's wall-clock duration, in experiment
	// order. It is rendered by TimingSummary, never by Markdown, so report
	// documents stay byte-identical across runs and worker counts.
	Timings []ExperimentTiming
}

// ExperimentTiming is one experiment's wall-clock measurement.
type ExperimentTiming struct {
	Name    string
	Elapsed time.Duration
}

// CollectReport runs exps across a worker pool of the given size (≤ 0
// selects runtime.NumCPU()). Each experiment builds its own kernels,
// clocks and machines, so experiments share no simulator state; tables
// land in experiment order, making the report byte-identical to a
// sequential run. The first error (by experiment order) names its
// experiment and cancels the remaining unstarted ones.
func CollectReport(exps []Experiment, units, workers int) (*Report, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	r := &Report{
		Units:   units,
		Tables:  make([]*Table, len(exps)),
		Timings: make([]ExperimentTiming, len(exps)),
	}
	for i, e := range exps {
		r.Timings[i].Name = e.Name
	}

	var (
		mu       sync.Mutex
		firstIdx = len(exps)
		firstErr error
		aborted  = make(chan struct{})
		abort    sync.Once
		wg       sync.WaitGroup
	)
	taskCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range taskCh {
				start := time.Now()
				t, err := exps[i].Run(units)
				r.Timings[i].Elapsed = time.Since(start)
				r.Tables[i] = t
				if err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, fmt.Errorf("%s: %w", exps[i].Name, err)
					}
					mu.Unlock()
					abort.Do(func() { close(aborted) })
				}
			}
		}()
	}
feed:
	for i := range exps {
		select {
		case taskCh <- i:
		case <-aborted:
			break feed
		}
	}
	close(taskCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return r, nil
}

// TimingSummary renders per-experiment wall-clock timings (separate from
// Markdown so report documents stay deterministic).
func (r *Report) TimingSummary() string {
	var b strings.Builder
	b.WriteString("experiment wall-clock timings:\n")
	var total time.Duration
	for _, t := range r.Timings {
		fmt.Fprintf(&b, "  %-24s %8.1f ms\n", t.Name, float64(t.Elapsed.Microseconds())/1000)
		total += t.Elapsed
	}
	fmt.Fprintf(&b, "  %-24s %8.1f ms (sum of experiment times)\n", "total", float64(total.Microseconds())/1000)
	return b.String()
}

// Markdown renders the whole report as a standalone document.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# BASTION evaluation report (%d units per measurement)\n\n", r.Units)
	b.WriteString("All numbers are deterministic simulator measurements; see EXPERIMENTS.md for paper comparison.\n")
	for _, t := range r.Tables {
		b.WriteString("\n" + t.Markdown())
	}
	return b.String()
}

// PerfArtifact flattens the report into a perf.Artifact, the repo's
// machine-readable perf trajectory: every named value of every table, with
// the direction its experiment assigned. The direction is the gating
// contract:
//
//   - overheads, cycles/unit, instruction counts, init latency, trace
//     bytes: LowerIsBetter;
//   - throughput, raw MB/s / NOTPM rates: HigherIsBetter (except vsftpd's
//     raw numbers, whose "sec" unit is a completion time);
//   - everything the deterministic simulator pins bit-for-bit — syscall
//     counts, policy sizes, verdict bits, trap/avoided counts: Exact,
//     because any drift there is a semantic change, not noise;
//   - structural context (depth averages): Info, never gated.
//
// Report.Timings is wall-clock and deliberately excluded: artifacts must
// be byte-identical across runs and machines.
func (r *Report) PerfArtifact(label string) *perf.Artifact {
	a := perf.New(label, r.Units)
	for _, t := range r.Tables {
		a.Metrics = append(a.Metrics, t.Metrics()...)
	}
	return a
}
