// Package audit implements the whole-program policy auditor behind
// cmd/bastion-audit and bastionc -audit: a deterministic findings engine
// that cross-validates the compiler's context metadata against the
// instrumented program it describes, plus a per-syscall residual-surface
// report (the paper's §8 security-analysis numbers, before vs after
// points-to refinement).
//
// The auditor never re-runs the analysis. It checks that what the
// metadata asserts is witnessed by the program: every address resolves to
// the instruction the record claims, every relation edge has a syntactic
// justification, every classification is consistent with how the program
// references the wrapper. A compiler bug, a corrupted sidecar, or a
// mismatched program/metadata pair surfaces as findings with stable codes
// and locations, so a CI gate can allowlist the accepted ones and fail on
// anything new.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"bastion/internal/core/metadata"
	"bastion/internal/ir"
)

// Severity ranks a finding.
type Severity uint8

// Severities.
const (
	// SevWarn marks residual looseness worth tracking (dead wrappers,
	// untraced arguments): expected on real programs, listed so growth is
	// deliberate.
	SevWarn Severity = iota
	// SevError marks metadata that is wrong about the program: the
	// monitor would enforce a policy the binary does not justify.
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warn"
}

// Finding codes. Codes are stable API: the allowlist and CI gate key on
// them.
const (
	CodeFuncRange          = "META-FUNC-RANGE"          // Funcs entry disagrees with the program
	CodeCallsiteUnmapped   = "META-CALLSITE-UNMAPPED"   // callsite address is not a call instruction
	CodeCallsiteKind       = "META-CALLSITE-KIND"       // direct/indirect kind mismatch
	CodeCallsiteTarget     = "META-CALLSITE-TARGET"     // recorded target differs from the instruction
	CodeCallsiteMissing    = "META-CALLSITE-MISSING"    // program callsite absent from metadata
	CodeWrapperMismatch    = "CT-WRAPPER-MISMATCH"      // CallTypes wrapper/number disagrees with the program
	CodeNotCallableReached = "CT-NOTCALLABLE-REACHABLE" // not-callable syscall is referenced by the program
	CodeClassUnwitnessed   = "CT-CLASS-UNWITNESSED"     // direct/indirect classification has no witness
	CodeDeadWrapper        = "WRAP-DEAD"                // wrapper linked but never referenced
	CodePhantomCaller      = "CF-PHANTOM-EDGE"          // ValidCallers edge without a direct callsite
	CodeTargetNotTaken     = "CF-TARGET-NOT-TAKEN"      // IndirectTargets entry never address-taken
	CodeTargetMissing      = "CF-TARGET-MISSING"        // address-taken function absent from IndirectTargets
	CodeAllowedDangling    = "CF-ALLOWED-DANGLING"      // AllowedIndirect address is not an indirect callsite
	CodeRefinedBeyond      = "CF-REFINED-BEYOND-COARSE" // refined policy admits what coarse rejects
	CodeSiteInconsistent   = "CF-SITE-INCONSISTENT"     // IndirectSites record disagrees with the program
	CodeArgSiteUnmapped    = "AI-SITE-UNMAPPED"         // ArgSites address is not a call instruction
	CodeShadowOverlap      = "AI-SHADOW-OVERLAP"        // one position bound twice at a callsite
	CodeUntracedArg        = "AI-UNTRACED"              // argument the use-def trace gave up on
)

// Finding is one audit result.
type Finding struct {
	Severity Severity
	Code     string
	// Location identifies the finding's subject: a function name, or
	// "func:0xADDR" for instruction-level findings, with an optional
	// ":pN" argument-position suffix.
	Location string
	Detail   string
}

// Key is the identity the allowlist matches on: "CODE location".
func (f Finding) Key() string { return f.Code + " " + f.Location }

func (f Finding) String() string {
	return fmt.Sprintf("%-5s %-24s %-28s %s", f.Severity, f.Code, f.Location, f.Detail)
}

// ResidualRow quantifies the remaining attack surface of one syscall: the
// permitted (callsite, trace) tuples and the constant-argument value
// space, with the indirect column before and after refinement.
type ResidualRow struct {
	Nr          uint32
	Name        string
	Direct      bool
	Indirect    bool
	DirectSites int // direct callsites invoking the wrapper
	// IndirectCoarse/IndirectRefined count the indirect callsites that may
	// start a path to this syscall (the §7.3 partial-trace heads).
	IndirectCoarse  int
	IndirectRefined int
	// ConstArgs is the constant-argument value space at the syscall's own
	// callsites: "pN=V" strings, sorted and deduplicated.
	ConstArgs []string
}

// Report is one audited program.
type Report struct {
	App      string
	Findings []Finding
	Residual []ResidualRow
}

// Run audits meta against the linked, instrumented prog. Findings are
// deterministically ordered: severity (errors first), then code, location,
// detail.
func Run(app string, prog *ir.Program, meta *metadata.Metadata) *Report {
	a := &auditor{prog: prog, meta: meta}
	a.index()
	a.checkFuncs()
	a.checkCallsites()
	a.checkCallTypes()
	a.checkControlFlow()
	a.checkIndirectPolicies()
	a.checkArgSites()
	a.checkUntraced()

	sort.Slice(a.findings, func(i, j int) bool {
		x, y := a.findings[i], a.findings[j]
		if x.Severity != y.Severity {
			return x.Severity > y.Severity
		}
		if x.Code != y.Code {
			return x.Code < y.Code
		}
		if x.Location != y.Location {
			return x.Location < y.Location
		}
		return x.Detail < y.Detail
	})
	return &Report{App: app, Findings: a.findings, Residual: a.residual()}
}

type auditor struct {
	prog     *ir.Program
	meta     *metadata.Metadata
	findings []Finding

	// Program-side witness indexes.
	directSites  map[string]map[string]bool // target -> callers with a direct call
	addressTaken map[string]bool
	instrAt      map[uint64]*ir.Instr
	instrFn      map[uint64]string
	wrapperNr    map[string]int64
}

func (a *auditor) add(sev Severity, code, loc, format string, args ...any) {
	a.findings = append(a.findings, Finding{
		Severity: sev, Code: code, Location: loc, Detail: fmt.Sprintf(format, args...),
	})
}

func loc(fn string, addr uint64) string { return fmt.Sprintf("%s:%#x", fn, addr) }

func (a *auditor) index() {
	a.directSites = map[string]map[string]bool{}
	a.addressTaken = map[string]bool{}
	a.instrAt = map[uint64]*ir.Instr{}
	a.instrFn = map[uint64]string{}
	a.wrapperNr = map[string]int64{}
	for _, f := range a.prog.Funcs {
		if nr, ok := ir.SyscallNumber(f); ok {
			a.wrapperNr[f.Name] = nr
		}
		for i := range f.Code {
			in := &f.Code[i]
			a.instrAt[f.InstrAddr(i)] = in
			a.instrFn[f.InstrAddr(i)] = f.Name
			switch in.Kind {
			case ir.Call:
				if a.directSites[in.Sym] == nil {
					a.directSites[in.Sym] = map[string]bool{}
				}
				a.directSites[in.Sym][f.Name] = true
			case ir.FuncAddr:
				a.addressTaken[in.Sym] = true
			}
		}
	}
}

// checkFuncs: every metadata code range must match the program, and every
// program function must be mapped (the CF walk resolves the trapping RIP
// through these ranges; a gap there turns legitimate frames into
// violations).
func (a *auditor) checkFuncs() {
	for name, fi := range a.meta.Funcs {
		f := a.prog.Func(name)
		if f == nil {
			a.add(SevError, CodeFuncRange, name, "metadata maps a function the program does not define")
			continue
		}
		end := f.Base + uint64(len(f.Code))*ir.InstrSize
		if fi.Entry != f.Base || fi.End != end {
			a.add(SevError, CodeFuncRange, name, "metadata range [%#x,%#x) != program [%#x,%#x)",
				fi.Entry, fi.End, f.Base, end)
		}
	}
	for _, f := range a.prog.Funcs {
		if _, ok := a.meta.Funcs[f.Name]; !ok {
			a.add(SevError, CodeFuncRange, f.Name, "program function missing from metadata")
		}
	}
}

// checkCallsites: every metadata callsite must resolve to the call
// instruction it claims, and every call instruction must be recorded (the
// monitor rejects return addresses without a callsite entry).
func (a *auditor) checkCallsites() {
	for ret, cs := range a.meta.Callsites {
		in, ok := a.instrAt[cs.Addr]
		if !ok {
			a.add(SevError, CodeCallsiteUnmapped, loc(cs.Caller, cs.Addr), "callsite address maps to no instruction")
			continue
		}
		if cs.RetAddr != cs.Addr+ir.InstrSize || cs.RetAddr != ret {
			a.add(SevError, CodeCallsiteUnmapped, loc(cs.Caller, cs.Addr),
				"return-address key %#x inconsistent with callsite address", ret)
		}
		if fn := a.instrFn[cs.Addr]; fn != cs.Caller {
			a.add(SevError, CodeCallsiteUnmapped, loc(cs.Caller, cs.Addr), "callsite lies in %s", fn)
		}
		switch {
		case cs.Kind == metadata.SiteDirect && in.Kind != ir.Call:
			a.add(SevError, CodeCallsiteKind, loc(cs.Caller, cs.Addr), "recorded direct, instruction is %v", in.Kind)
		case cs.Kind == metadata.SiteIndirect && in.Kind != ir.CallInd:
			a.add(SevError, CodeCallsiteKind, loc(cs.Caller, cs.Addr), "recorded indirect, instruction is %v", in.Kind)
		case cs.Kind == metadata.SiteDirect && in.Sym != cs.Target:
			a.add(SevError, CodeCallsiteTarget, loc(cs.Caller, cs.Addr), "recorded target %s, instruction calls %s", cs.Target, in.Sym)
		}
	}
	for _, f := range a.prog.Funcs {
		for i := range f.Code {
			k := f.Code[i].Kind
			if k != ir.Call && k != ir.CallInd {
				continue
			}
			if _, ok := a.meta.Callsites[f.InstrAddr(i+1)]; !ok {
				a.add(SevError, CodeCallsiteMissing, loc(f.Name, f.InstrAddr(i)), "%v instruction has no callsite record", k)
			}
		}
	}
}

// checkCallTypes: classifications must be witnessed by the program, and
// not-callable syscalls (absent from CallTypes) must be genuinely
// unreferenced. Wrappers that are linked but never referenced at all are
// dead weight in the attack surface and flagged as warnings.
func (a *auditor) checkCallTypes() {
	for nr, ct := range a.meta.CallTypes {
		wnr, isWrapper := a.wrapperNr[ct.Wrapper]
		if !isWrapper || uint64(wnr) != uint64(nr) {
			a.add(SevError, CodeWrapperMismatch, ct.Wrapper, "call type %d names a wrapper the program does not implement for it", nr)
			continue
		}
		if ct.Direct && len(a.directSites[ct.Wrapper]) == 0 {
			a.add(SevError, CodeClassUnwitnessed, ct.Wrapper, "classified directly-callable but no direct callsite exists")
		}
		if ct.Indirect && !a.addressTaken[ct.Wrapper] {
			a.add(SevError, CodeClassUnwitnessed, ct.Wrapper, "classified indirectly-callable but its address is never taken")
		}
	}
	names := make([]string, 0, len(a.wrapperNr))
	for w := range a.wrapperNr {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		nr := uint32(a.wrapperNr[w])
		referenced := len(a.directSites[w]) > 0 || a.addressTaken[w]
		if _, classified := a.meta.CallTypes[nr]; classified {
			continue
		}
		if referenced {
			a.add(SevError, CodeNotCallableReached, w, "classified not-callable but the program references it")
		} else {
			a.add(SevWarn, CodeDeadWrapper, w, "wrapper for syscall %d is linked but never called or address-taken", nr)
		}
	}
}

// checkControlFlow: every ValidCallers edge needs a witnessing direct
// callsite, and IndirectTargets must be exactly the address-taken set.
func (a *auditor) checkControlFlow() {
	for callee, callers := range a.meta.ValidCallers {
		for caller := range callers {
			if !a.directSites[callee][caller] {
				a.add(SevError, CodePhantomCaller, callee, "metadata permits %s as caller but no direct callsite exists", caller)
			}
		}
	}
	for t := range a.meta.IndirectTargets {
		if !a.addressTaken[t] {
			a.add(SevError, CodeTargetNotTaken, t, "listed as indirect target but its address is never taken")
		}
	}
	taken := make([]string, 0, len(a.addressTaken))
	for t := range a.addressTaken {
		taken = append(taken, t)
	}
	sort.Strings(taken)
	for _, t := range taken {
		if !a.meta.IndirectTargets[t] {
			a.add(SevError, CodeTargetMissing, t, "address-taken but absent from IndirectTargets")
		}
	}
}

// checkIndirectPolicies: AllowedIndirect (both precisions) and the
// per-site records must point at real indirect callsites, and refinement
// must only ever remove.
func (a *auditor) checkIndirectPolicies() {
	check := func(pol metadata.NrAddrSets, which string) {
		for nr, set := range pol {
			for addr := range set {
				in, ok := a.instrAt[addr]
				if !ok || in.Kind != ir.CallInd {
					a.add(SevError, CodeAllowedDangling, loc(a.instrFn[addr], addr),
						"%s policy for syscall %d is not an indirect callsite", which, nr)
				}
			}
		}
	}
	check(a.meta.AllowedIndirect, "refined")
	check(a.meta.AllowedIndirectCoarse, "coarse")
	for nr, refined := range a.meta.AllowedIndirect {
		coarse := a.meta.AllowedIndirectCoarse[nr]
		for addr := range refined {
			if a.meta.AllowedIndirectCoarse != nil && !coarse[addr] {
				a.add(SevError, CodeRefinedBeyond, loc(a.instrFn[addr], addr),
					"refined policy for syscall %d admits a callsite the coarse policy rejects", nr)
			}
		}
	}
	for addr, s := range a.meta.IndirectSites {
		l := loc(s.Caller, addr)
		in, ok := a.instrAt[addr]
		if !ok || in.Kind != ir.CallInd {
			a.add(SevError, CodeSiteInconsistent, l, "recorded indirect site is not an indirect call instruction")
			continue
		}
		if s.Addr != addr || a.instrFn[addr] != s.Caller || in.TypeSig != s.TypeSig {
			a.add(SevError, CodeSiteInconsistent, l, "site record disagrees with the instruction")
			continue
		}
		coarse := map[string]bool{}
		for _, t := range s.Coarse {
			coarse[t] = true
			if !a.addressTaken[t] {
				a.add(SevError, CodeSiteInconsistent, l, "coarse target %s is never address-taken", t)
			}
			if tf := a.prog.Func(t); tf == nil {
				a.add(SevError, CodeSiteInconsistent, l, "coarse target %s is not a function", t)
			} else if s.TypeSig != "" && tf.TypeSig != s.TypeSig {
				a.add(SevError, CodeSiteInconsistent, l, "coarse target %s signature %s != site %s", t, tf.TypeSig, s.TypeSig)
			}
		}
		for _, t := range s.Targets {
			if !coarse[t] {
				a.add(SevError, CodeRefinedBeyond, l, "refined target %s beyond the coarse set", t)
			}
		}
	}
}

// checkArgSites: argument records must anchor at call instructions and
// bind each position at most once (an overlapping shadow binding would
// make the monitor verify against whichever record happened to win).
func (a *auditor) checkArgSites() {
	for addr, site := range a.meta.ArgSites {
		l := loc(site.Caller, addr)
		in, ok := a.instrAt[addr]
		if !ok || (in.Kind != ir.Call && in.Kind != ir.CallInd) {
			a.add(SevError, CodeArgSiteUnmapped, l, "argument record is not anchored at a call instruction")
			continue
		}
		seen := map[int]bool{}
		for _, spec := range site.Args {
			if seen[spec.Pos] {
				a.add(SevError, CodeShadowOverlap, fmt.Sprintf("%s:p%d", l, spec.Pos),
					"argument position bound more than once")
			}
			seen[spec.Pos] = true
		}
	}
}

// checkUntraced surfaces every argument the use-def trace could not
// resolve, with its reason code: the enumerable gap in argument-integrity
// coverage.
func (a *auditor) checkUntraced() {
	for _, u := range a.meta.Untraced {
		a.add(SevWarn, CodeUntracedArg+"/"+u.Reason, fmt.Sprintf("%s:%#x:p%d", u.Caller, u.Addr, u.Pos),
			"argument %d of call to %s not traced", u.Pos, u.Target)
	}
}

// residual builds the per-syscall residual-surface rows, sorted by number.
func (a *auditor) residual() []ResidualRow {
	nrs := make([]uint32, 0, len(a.meta.CallTypes))
	for nr := range a.meta.CallTypes {
		nrs = append(nrs, nr)
	}
	sort.Slice(nrs, func(i, j int) bool { return nrs[i] < nrs[j] })
	rows := make([]ResidualRow, 0, len(nrs))
	for _, nr := range nrs {
		ct := a.meta.CallTypes[nr]
		row := ResidualRow{
			Nr: nr, Name: ct.Name, Direct: ct.Direct, Indirect: ct.Indirect,
			IndirectCoarse:  len(a.meta.AllowedIndirectCoarse[nr]),
			IndirectRefined: len(a.meta.AllowedIndirect[nr]),
		}
		constArgs := map[string]bool{}
		for _, site := range a.meta.ArgSites {
			if !site.IsSyscall || site.SyscallNr != nr || site.Target != ct.Wrapper {
				continue
			}
			row.DirectSites++
			for _, spec := range site.Args {
				if spec.Kind == metadata.ArgConst {
					constArgs[fmt.Sprintf("p%d=%d", spec.Pos, spec.Const)] = true
				}
			}
		}
		if row.DirectSites == 0 {
			// Syscalls outside the sensitive set have no arg sites; count
			// their direct callsites from the callsite map instead.
			for _, cs := range a.meta.Callsites {
				if cs.Kind == metadata.SiteDirect && cs.Target == ct.Wrapper {
					row.DirectSites++
				}
			}
		}
		row.ConstArgs = make([]string, 0, len(constArgs))
		for s := range constArgs {
			row.ConstArgs = append(row.ConstArgs, s)
		}
		sort.Strings(row.ConstArgs)
		rows = append(rows, row)
	}
	return rows
}

// Errors counts SevError findings.
func (r *Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == SevError {
			n++
		}
	}
	return n
}

// Unallowed returns the findings not covered by the allowlist, in order.
func (r *Report) Unallowed(allow map[string]bool) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !allow[f.Key()] {
			out = append(out, f)
		}
	}
	return out
}

// ParseAllowlist reads an allowlist: one "CODE location" key per line,
// '#' comments and blank lines ignored.
func ParseAllowlist(data []byte) map[string]bool {
	allow := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		allow[line] = true
	}
	return allow
}

// Render formats the report deterministically.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit %s: %d finding(s), %d error(s)\n", r.App, len(r.Findings), r.Errors())
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	b.WriteString(r.RenderResidual())
	return b.String()
}

// RenderResidual formats the residual-surface table: the permitted call
// surface per syscall, with the indirect column before and after
// refinement and the constant-argument value space.
func (r *Report) RenderResidual() string {
	var b strings.Builder
	fmt.Fprintf(&b, "residual surface (%s): %d callable syscall(s)\n", r.App, len(r.Residual))
	fmt.Fprintf(&b, "  %-18s %-6s %-15s %-7s %-13s %s\n",
		"syscall", "nr", "calltype", "direct", "ind(coarse→refined)", "const-args")
	for _, row := range r.Residual {
		mode := "direct"
		switch {
		case row.Direct && row.Indirect:
			mode = "direct+indirect"
		case row.Indirect:
			mode = "indirect"
		}
		consts := "-"
		if len(row.ConstArgs) > 0 {
			consts = strings.Join(row.ConstArgs, ",")
		}
		fmt.Fprintf(&b, "  %-18s %-6d %-15s %-7d %4d→%-8d %s\n",
			row.Name, row.Nr, mode, row.DirectSites, row.IndirectCoarse, row.IndirectRefined, consts)
	}
	return b.String()
}
