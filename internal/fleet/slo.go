package fleet

import (
	"fmt"
	"math"
	"strings"

	"bastion/internal/obs"
	"bastion/internal/obs/perf"
)

// SLOConfig declares per-shard service-level budgets, evaluated from the
// telemetry plane after a fleet run (setting it implies Trace). The
// zero value is the strict default: no trap-latency budget, zero
// tolerance for violations and admission rejections.
//
// Budgets use simulated cycles and exact counts only — evaluation is
// deterministic and byte-identical across serial and concurrent runs.
type SLOConfig struct {
	// TrapP99Cycles budgets the p99 of monitor_trap_cycles per shard,
	// computed exactly from the fixed-bucket histogram (the reported p99
	// is a bucket upper bound). 0 disables the budget. A p99 landing in
	// the histogram's overflow bucket always breaches a non-zero budget.
	TrapP99Cycles uint64
	// ViolationsPerKUnit budgets recorded violations per 1000 completed
	// units. 0 is zero-tolerance (any violation breaches); negative
	// disables the budget.
	ViolationsPerKUnit float64
	// RejectsPerTenant budgets admission rejections per member tenant.
	// 0 is zero-tolerance; negative disables.
	RejectsPerTenant float64
	// WarnFraction is the budget utilization at which PASS turns to WARN
	// (0 selects 0.8); utilization above 1 is a BREACH.
	WarnFraction float64
	// AnomalyFactor / AnomalyWarmup tune the EWMA anomaly pass over each
	// tenant's trap-cycle stream (zero values select the perf defaults).
	// Anomaly counts are informational — they annotate rows but never
	// change the PASS/WARN/BREACH status.
	AnomalyFactor float64
	AnomalyWarmup int
}

// Validate rejects nonsensical budget declarations.
func (s *SLOConfig) Validate() error {
	if s.WarnFraction < 0 || s.WarnFraction >= 1 {
		return fmt.Errorf("fleet: slo warn fraction must be in [0,1), got %v", s.WarnFraction)
	}
	if s.AnomalyFactor < 0 || (s.AnomalyFactor > 0 && s.AnomalyFactor <= 1) {
		return fmt.Errorf("fleet: slo anomaly factor must be > 1 (or 0 for the default), got %v", s.AnomalyFactor)
	}
	if s.AnomalyWarmup < 0 {
		return fmt.Errorf("fleet: slo anomaly warmup must be non-negative, got %d", s.AnomalyWarmup)
	}
	return nil
}

// warnAt returns the effective WARN threshold.
func (s *SLOConfig) warnAt() float64 {
	if s.WarnFraction == 0 {
		return 0.8
	}
	return s.WarnFraction
}

// SLOStatus is a row's health classification.
type SLOStatus uint8

const (
	SLOPass SLOStatus = iota
	SLOWarn
	SLOBreach
)

// String returns the report form.
func (s SLOStatus) String() string {
	switch s {
	case SLOPass:
		return "PASS"
	case SLOWarn:
		return "WARN"
	case SLOBreach:
		return "BREACH"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// SLORow is one scope's evaluated budgets: one row per shard plus a
// fleet-wide row (Shard == -1). Quantiles are exact bucket upper bounds
// from the merged trap-cycle histograms; obs.QuantileOverflow renders as
// "inf".
type SLORow struct {
	Shard   int
	Tenants int
	// P50/P90/P99 are monitor_trap_cycles quantiles for the scope.
	P50, P90, P99 uint64
	// Violations and Units feed the violation-rate budget; Rejects the
	// admission budget.
	Violations int
	Units      uint64
	Rejects    int
	// Anomalies counts EWMA flags across the scope's tenant trap streams
	// (informational).
	Anomalies int
	// Health is 0–100: each evaluated budget deducts up to 25 points in
	// its WARN band and up to 50 past its budget.
	Health int
	Status SLOStatus
	// Breached names the budgets past 100% utilization, in fixed order.
	Breached []string
}

// ViolationsPerKUnit is the row's measured violation rate.
func (r *SLORow) ViolationsPerKUnit() float64 {
	if r.Units == 0 {
		if r.Violations > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return float64(r.Violations) * 1000 / float64(r.Units)
}

// RejectsPerTenant is the row's measured admission-rejection rate.
func (r *SLORow) RejectsPerTenant() float64 {
	if r.Tenants == 0 {
		return 0
	}
	return float64(r.Rejects) / float64(r.Tenants)
}

// EvaluateSLO computes the report's SLO rows: one per shard in shard
// order, then the fleet-wide row. Returns nil when the
// run declared no SLO. Quantiles come from the merged telemetry
// registries, so evaluation needs Trace (Run enables it whenever SLO is
// set).
func (r *Report) EvaluateSLO() []SLORow {
	cfg := r.Cfg.SLO
	if cfg == nil {
		return nil
	}
	var rows []SLORow
	regs := r.ShardMetrics()
	for i, s := range r.Shards {
		rows = append(rows, r.evaluateScope(cfg, s.ID, s.Members, regs[i]))
	}
	all := make([]int, len(r.Results))
	for i := range all {
		all[i] = i
	}
	return append(rows, r.evaluateScope(cfg, -1, all, r.MergedMetrics()))
}

// evaluateScope scores one member set against the budgets.
func (r *Report) evaluateScope(cfg *SLOConfig, shardID int, members []int, reg *obs.Registry) SLORow {
	row := SLORow{Shard: shardID, Tenants: len(members)}
	h := reg.Histogram("monitor_trap_cycles", obs.CycleBuckets)
	row.P50 = h.Quantile(0.50)
	row.P90 = h.Quantile(0.90)
	row.P99 = h.Quantile(0.99)
	anomaly := perf.AnomalyConfig{Factor: cfg.AnomalyFactor, Warmup: cfg.AnomalyWarmup}
	for _, idx := range members {
		t := &r.Results[idx]
		row.Violations += len(t.Violations)
		row.Units += uint64(t.Units)
		row.Rejects += t.AdmitRejects
		row.Anomalies += len(perf.DetectEWMA(trapCycleStream(t.Events), anomaly))
	}

	warn := cfg.warnAt()
	health := 100.0
	score := func(name string, utilization float64) {
		var penalty float64
		switch {
		case utilization <= warn:
			return
		case utilization <= 1:
			penalty = 25 * (utilization - warn) / (1 - warn)
			if row.Status < SLOWarn {
				row.Status = SLOWarn
			}
		default:
			over := utilization - 1
			if over > 1 || math.IsInf(utilization, 1) {
				over = 1
			}
			penalty = 25 + 25*over
			row.Status = SLOBreach
			row.Breached = append(row.Breached, name)
		}
		health -= penalty
	}
	if cfg.TrapP99Cycles > 0 {
		if row.P99 == obs.QuantileOverflow {
			score("trap_p99", math.Inf(1))
		} else {
			score("trap_p99", float64(row.P99)/float64(cfg.TrapP99Cycles))
		}
	}
	if cfg.ViolationsPerKUnit >= 0 {
		score("violations", utilization(row.ViolationsPerKUnit(), cfg.ViolationsPerKUnit))
	}
	if cfg.RejectsPerTenant >= 0 {
		score("admission", utilization(row.RejectsPerTenant(), cfg.RejectsPerTenant))
	}
	if health < 0 {
		health = 0
	}
	row.Health = int(math.Round(health))
	return row
}

// utilization divides used by budget; a zero budget is zero-tolerance
// (any use is infinitely over, no use is zero).
func utilization(used, budget float64) float64 {
	if budget == 0 {
		if used > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return used / budget
}

// trapCycleStream flattens a tenant's decision trace into its per-trap
// cycle costs, in trap order.
func trapCycleStream(events []obs.TrapEvent) []uint64 {
	if len(events) == 0 {
		return nil
	}
	out := make([]uint64, len(events))
	for i := range events {
		out[i] = events[i].End - events[i].Start
	}
	return out
}

// quantileCell renders a quantile for the SLO table ("inf" for the
// overflow sentinel).
func quantileCell(q uint64) string {
	if q == obs.QuantileOverflow {
		return "inf"
	}
	return fmt.Sprintf("%d", q)
}

// renderSLO writes the ### SLO section rows.
func renderSLO(b *strings.Builder, rows []SLORow) {
	b.WriteString("\n### SLO\n\n")
	b.WriteString("| scope | tenants | p50 | p90 | p99 | viol/ku | rejects/tenant | anomalies | health | status | breached |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for i := range rows {
		row := &rows[i]
		scope := "fleet"
		if row.Shard >= 0 {
			scope = fmt.Sprintf("shard %d", row.Shard)
		}
		fmt.Fprintf(b, "| %s | %d | %s | %s | %s | %.3f | %.3f | %d | %d | %s | %s |\n",
			scope, row.Tenants,
			quantileCell(row.P50), quantileCell(row.P90), quantileCell(row.P99),
			row.ViolationsPerKUnit(), row.RejectsPerTenant(),
			row.Anomalies, row.Health, row.Status, strings.Join(row.Breached, " "))
	}
}
