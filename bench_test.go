// Benchmarks regenerating every table and figure of the paper's
// evaluation: one sub-benchmark per bench.Experiments entry, each
// performing the full experiment per iteration and logging its report
// section once. Every headline number is a named metric in that section's
// table, so the perf artifact (bastion-bench -format json) carries them.
// Run:
//
//	go test -bench=. -benchmem
//
// cmd/bastion-bench produces the same sections with larger unit counts.
package bastion_test

import (
	"sync"
	"testing"

	"bastion/internal/attacks"
	"bastion/internal/bench"
)

// benchUnits keeps -bench runs quick; cmd/bastion-bench uses more.
const benchUnits = 40

// BenchmarkExperiments runs each registered experiment.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		var logOnce sync.Once
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := e.Run(benchUnits)
				if err != nil {
					b.Fatal(err)
				}
				logOnce.Do(func() { b.Log("\n" + t.Markdown()) })
			}
		})
	}
}

// BenchmarkAttackEvaluation measures one representative end-to-end attack
// evaluation (compile, launch ×5 defenses, verdict).
func BenchmarkAttackEvaluation(b *testing.B) {
	s, ok := attacks.ByID("ind-jujutsu")
	if !ok {
		b.Fatal("scenario missing")
	}
	for i := 0; i < b.N; i++ {
		if _, err := attacks.Evaluate(s); err != nil {
			b.Fatal(err)
		}
	}
}
