package bench

import (
	"bastion/internal/obs/perf"
)

// mitSlug maps a mitigation stack onto the artifact's metric-name
// alphabet (lowercase, no spaces or '+').
func mitSlug(m Mitigation) string {
	switch m {
	case MitVanilla:
		return "vanilla"
	case MitCFI:
		return "cfi"
	case MitCET:
		return "cet"
	case MitCETCT:
		return "cet_ct"
	case MitCETCTCF:
		return "cet_ct_cf"
	case MitFull:
		return "full"
	}
	return "unknown"
}

// table7Slug maps the Table 7 configuration labels onto metric-name stems.
var table7Slug = map[string]string{
	"seccomp hook only":     "hook_only",
	"fetch process state":   "fetch",
	"full context checking": "full",
}

// b01 renders a verdict bit as an Exact-gated 0/1 metric value.
func b01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// PerfArtifact flattens the report into a perf.Artifact — the repo's
// machine-readable perf trajectory. Direction assignment is the gating
// contract:
//
//   - overheads, cycles/unit, instruction counts, init latency, trace
//     bytes: LowerIsBetter;
//   - throughput, raw MB/s / NOTPM rates: HigherIsBetter
//     (except vsftpd's Table 3 row, whose "sec" unit is a completion time
//     and therefore LowerIsBetter);
//   - everything the deterministic simulator pins bit-for-bit — syscall
//     counts, policy sizes, verdict bits, trap/avoided counts: Exact,
//     because any drift there is a semantic change, not noise;
//   - structural context (depth averages): Info, never gated.
//
// Report.Timings is wall-clock and deliberately excluded: artifacts must
// be byte-identical across runs and machines.
func (r *Report) PerfArtifact(label string) *perf.Artifact {
	a := perf.New(label, r.Units)

	for _, row := range r.Figure3 {
		for _, mit := range Mitigations[1:] {
			a.Add("fig3."+row.App+"."+mitSlug(mit)+".overhead_pct", row.Overheads[mit], perf.LowerIsBetter)
		}
	}
	for _, row := range r.Table3 {
		dir := perf.HigherIsBetter
		if row.Unit == "sec" {
			dir = perf.LowerIsBetter
		}
		for _, c := range row.Cells {
			a.Add("table3."+row.App+"."+mitSlug(c.Mitigation)+".raw", c.Value, dir)
		}
	}
	if r.Table4 != nil {
		for _, row := range r.Table4.Rows {
			for _, app := range Apps {
				a.Add("table4."+app+"."+row.Syscall+".calls", float64(row.Counts[app]), perf.Exact)
			}
		}
		for _, app := range Apps {
			a.Add("table4."+app+".hooks", float64(r.Table4.Hooks[app]), perf.Exact)
		}
	}
	for _, row := range r.Table5 {
		stats := []struct {
			name string
			v    int
		}{
			{"callsites_total", row.TotalCallsites},
			{"callsites_direct", row.DirectCallsites},
			{"callsites_indirect", row.IndirectCallsites},
			{"callsites_sensitive", row.SensitiveCallsites},
			{"sensitive_indirect", row.SensitiveIndirect},
			{"ctx_write_mem", row.CtxWriteMem},
			{"ctx_bind_mem", row.CtxBindMem},
			{"ctx_bind_const", row.CtxBindConst},
			{"instrumentation_total", row.Total},
		}
		for _, s := range stats {
			a.Add("table5."+row.App+"."+s.name, float64(s.v), perf.Exact)
		}
	}
	for _, row := range r.Table6 {
		v := row.Verdict
		stem := "table6." + v.Scenario.ID + "."
		a.Add(stem+"ct", b01(v.CT), perf.Exact)
		a.Add(stem+"cf", b01(v.CF), perf.Exact)
		a.Add(stem+"ai", b01(v.AI), perf.Exact)
		a.Add(stem+"sf", b01(v.SF), perf.Exact)
		a.Add(stem+"full", b01(v.FullBlocked), perf.Exact)
	}
	for _, row := range r.Table7 {
		slug := table7Slug[row.Label]
		if slug == "" {
			slug = "other"
		}
		for _, app := range Apps {
			dir := perf.HigherIsBetter
			if app == "vsftpd" {
				dir = perf.LowerIsBetter
			}
			a.Add("table7."+slug+"."+app+".raw", row.Raw[app], dir)
			a.Add("table7."+slug+"."+app+".overhead_pct", row.Overheads[app], perf.LowerIsBetter)
		}
	}
	for _, st := range r.Init {
		a.Add("init."+st.App+".init_ms", st.InitMillis, perf.LowerIsBetter)
		a.Add("init."+st.App+".avg_depth", st.AvgDepth, perf.Info)
		a.Add("init."+st.App+".min_depth", float64(st.MinDepth), perf.Exact)
		a.Add("init."+st.App+".max_depth", float64(st.MaxDepth), perf.Exact)
	}
	if r.Accept != nil {
		a.Add("accept.fast_path.overhead_pct", r.Accept.FastPathOverhead, perf.LowerIsBetter)
		a.Add("accept.full_walk.overhead_pct", r.Accept.FullWalkOverhead, perf.LowerIsBetter)
	}
	for _, ik := range r.InK {
		a.Add("inkernel."+ik.App+".ptrace.overhead_pct", ik.PtraceOverhead, perf.LowerIsBetter)
		a.Add("inkernel."+ik.App+".inkernel.overhead_pct", ik.InKernelOverhead, perf.LowerIsBetter)
	}
	for _, fr := range r.Filter {
		stem := "filter." + fr.App + "."
		a.Add(stem+"linear_insns_eval", fr.LinearInsns, perf.LowerIsBetter)
		a.Add(stem+"tree_insns_eval", fr.TreeInsns, perf.LowerIsBetter)
		a.Add(stem+"linear_insns_call", fr.LinearPerCall, perf.LowerIsBetter)
		a.Add(stem+"tree_insns_call", fr.TreePerCall, perf.LowerIsBetter)
		a.Add(stem+"linear_overhead_pct", fr.LinearOverhead, perf.LowerIsBetter)
		a.Add(stem+"tree_overhead_pct", fr.TreeOverhead, perf.LowerIsBetter)
	}
	for _, sr := range r.SF {
		stem := "sf." + sr.App + "."
		a.Add(stem+"off_mon_cyc_unit", sr.OffMonPerUnit, perf.LowerIsBetter)
		a.Add(stem+"on_mon_cyc_unit", sr.OnMonPerUnit, perf.LowerIsBetter)
		a.Add(stem+"off_overhead_pct", sr.OffOverhead, perf.LowerIsBetter)
		a.Add(stem+"on_overhead_pct", sr.OnOverhead, perf.LowerIsBetter)
		a.Add(stem+"flow_checks", float64(sr.FlowChecks), perf.Exact)
		a.Add(stem+"traps", float64(sr.Traps), perf.Exact)
		a.Add(stem+"off_violations", float64(sr.OffViolations), perf.Exact)
		a.Add(stem+"on_violations", float64(sr.OnViolations), perf.Exact)
	}
	for _, or := range r.Offload {
		stem := "offload." + or.App + "."
		a.Add(stem+"off_traps", float64(or.OffTraps), perf.Exact)
		a.Add(stem+"on_traps", float64(or.OnTraps), perf.Exact)
		a.Add(stem+"avoided", float64(or.Avoided), perf.Exact)
		a.Add(stem+"offloaded_nrs", float64(or.OffloadedNrs), perf.Exact)
		a.Add(stem+"off_mon_cyc_unit", or.OffMonPerUnit, perf.LowerIsBetter)
		a.Add(stem+"on_mon_cyc_unit", or.OnMonPerUnit, perf.LowerIsBetter)
		a.Add(stem+"off_overhead_pct", or.OffOverhead, perf.LowerIsBetter)
		a.Add(stem+"on_overhead_pct", or.OnOverhead, perf.LowerIsBetter)
		a.Add(stem+"off_violations", float64(or.OffViolations), perf.Exact)
		a.Add(stem+"on_violations", float64(or.OnViolations), perf.Exact)
	}
	for _, rr := range r.Refine {
		stem := "refine." + rr.App + "."
		a.Add(stem+"edges_coarse", float64(rr.EdgesCoarse), perf.Exact)
		a.Add(stem+"edges_refined", float64(rr.EdgesRefined), perf.Exact)
		a.Add(stem+"pairs_coarse", float64(rr.PairsCoarse), perf.Exact)
		a.Add(stem+"pairs_refined", float64(rr.PairsRefined), perf.Exact)
		a.Add(stem+"exact_sites", float64(rr.ExactSites), perf.Exact)
		a.Add(stem+"escaped_sites", float64(rr.EscapedSites), perf.Exact)
		a.Add(stem+"coarse_mon_cyc_unit", rr.CoarseMonPerUnit, perf.LowerIsBetter)
		a.Add(stem+"refined_mon_cyc_unit", rr.RefinedMonPerUnit, perf.LowerIsBetter)
		a.Add(stem+"coarse_overhead_pct", rr.CoarseOverhead, perf.LowerIsBetter)
		a.Add(stem+"refined_overhead_pct", rr.RefinedOverhead, perf.LowerIsBetter)
		a.Add(stem+"coarse_violations", float64(rr.CoarseViolations), perf.Exact)
		a.Add(stem+"refined_violations", float64(rr.RefinedViolations), perf.Exact)
	}
	for _, or := range r.Obs {
		stem := "obs." + or.App + "."
		a.Add(stem+"identical", b01(or.Identical), perf.Exact)
		a.Add(stem+"off_mon_cyc_unit", or.OffMonPerUnit, perf.LowerIsBetter)
		a.Add(stem+"on_mon_cyc_unit", or.OnMonPerUnit, perf.LowerIsBetter)
		a.Add(stem+"traps", float64(or.Traps), perf.Exact)
		a.Add(stem+"events", float64(or.Events), perf.Exact)
		a.Add(stem+"trace_bytes", float64(or.TraceBytes), perf.LowerIsBetter)
		a.Add(stem+"flight_events", float64(or.FlightEvents), perf.Exact)
	}
	if r.Fleet != nil {
		for _, row := range r.Fleet.Rows {
			stem := fleetStem(row.Tenants)
			a.Add(stem+"shared_compiles", float64(row.SharedCompiles), perf.Exact)
			a.Add(stem+"shared_filters", float64(row.SharedFilters), perf.Exact)
			a.Add(stem+"per_tenant_compiles", float64(row.PerTenantCompiles), perf.Exact)
			a.Add(stem+"per_tenant_filters", float64(row.PerTenantFilters), perf.Exact)
			a.Add(stem+"throughput", row.Throughput, perf.HigherIsBetter)
			a.Add(stem+"mon_cyc_unit", row.MonPerUnit, perf.LowerIsBetter)
		}
	}
	return a
}

// fleetStem builds a fixed-width tenant-count stem (t001, t064) so the
// sorted artifact keeps fleet rows in numeric order.
func fleetStem(tenants int) string {
	const digits = "0123456789"
	n := tenants
	buf := []byte{'f', 'l', 'e', 'e', 't', '.', 't', '0', '0', '0', '.'}
	for i := 9; i >= 7 && n > 0; i-- {
		buf[i] = digits[n%10]
		n /= 10
	}
	return string(buf)
}
