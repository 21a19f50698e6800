package audit

import (
	"strings"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/metadata"
	"bastion/internal/ir"
	"bastion/internal/workload"
)

func compileApp(t *testing.T, app string) *core.Artifact {
	t.Helper()
	target, err := workload.NewTarget(app)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.Compile(target.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatalf("compile %s: %v", app, err)
	}
	return art
}

// TestAuditCleanOnShippedApps is the acceptance gate: the compiler's own
// output must audit with zero errors on every shipped guest. Warnings
// (dead wrappers, untraced arguments) are expected and enumerable.
func TestAuditCleanOnShippedApps(t *testing.T) {
	for _, app := range workload.Apps {
		art := compileApp(t, app)
		rep := Run(app, art.Prog, art.Meta)
		if n := rep.Errors(); n != 0 {
			t.Errorf("%s: %d audit error(s):\n%s", app, n, rep.Render())
		}
		for _, f := range rep.Findings {
			if f.Severity == SevWarn && !strings.HasPrefix(f.Code, CodeDeadWrapper) &&
				!strings.HasPrefix(f.Code, CodeUntracedArg) {
				t.Errorf("%s: unexpected warning class: %s", app, f)
			}
		}
	}
}

// TestAuditDeterministic: two independent compiles of the same app must
// render byte-identical reports (the CI gate diffs on this).
func TestAuditDeterministic(t *testing.T) {
	a := Run("nginx", compileApp(t, "nginx").Prog, compileApp(t, "nginx").Meta)
	b := Run("nginx", compileApp(t, "nginx").Prog, compileApp(t, "nginx").Meta)
	if a.Render() != b.Render() {
		t.Fatal("audit report is not deterministic across compiles")
	}
}

// TestAuditDetectsSeededCorruption seeds one metadata corruption per case
// and asserts the audit reports the matching error code.
func TestAuditDetectsSeededCorruption(t *testing.T) {
	cases := []struct {
		name    string
		code    string
		corrupt func(t *testing.T, m *metadata.Metadata)
	}{
		{"phantom-caller-edge", CodePhantomCaller, func(t *testing.T, m *metadata.Metadata) {
			for callee, set := range m.ValidCallers {
				set["no_such_caller"] = true
				_ = callee
				return
			}
			t.Skip("no ValidCallers to corrupt")
		}},
		{"dangling-allowed-indirect", CodeAllowedDangling, func(t *testing.T, m *metadata.Metadata) {
			if m.AllowedIndirect[59] == nil {
				m.AllowedIndirect[59] = metadata.AddrSet{}
				m.AllowedIndirectCoarse[59] = metadata.AddrSet{0xdead0: true}
			}
			m.AllowedIndirect[59][0xdead0] = true
			m.AllowedIndirectCoarse[59][0xdead0] = true
		}},
		{"refined-beyond-coarse", CodeRefinedBeyond, func(t *testing.T, m *metadata.Metadata) {
			for addr, s := range m.IndirectSites {
				s.Targets = append(s.Targets, "not_in_coarse")
				m.IndirectSites[addr] = s
				return
			}
			t.Skip("no IndirectSites to corrupt")
		}},
		{"callsite-retarget", CodeCallsiteTarget, func(t *testing.T, m *metadata.Metadata) {
			for ret, cs := range m.Callsites {
				if cs.Kind == metadata.SiteDirect {
					cs.Target = "somewhere_else"
					m.Callsites[ret] = cs
					return
				}
			}
			t.Skip("no direct callsite to corrupt")
		}},
		{"callsite-unmapped", CodeCallsiteUnmapped, func(t *testing.T, m *metadata.Metadata) {
			m.Callsites[0xdead4] = metadata.Callsite{
				Addr: 0xdead0, RetAddr: 0xdead4, Caller: "ghost", Kind: metadata.SiteDirect, Target: "open",
			}
		}},
		{"func-range-shift", CodeFuncRange, func(t *testing.T, m *metadata.Metadata) {
			for name, fi := range m.Funcs {
				fi.End += ir.InstrSize
				m.Funcs[name] = fi
				return
			}
		}},
		{"indirect-target-not-taken", CodeTargetNotTaken, func(t *testing.T, m *metadata.Metadata) {
			m.IndirectTargets["strlen"] = true
		}},
		{"calltype-unwitnessed", CodeClassUnwitnessed, func(t *testing.T, m *metadata.Metadata) {
			for nr, ct := range m.CallTypes {
				if !ct.Indirect {
					ct.Indirect = true
					m.CallTypes[nr] = ct
					return
				}
			}
			t.Skip("no direct-only call type to corrupt")
		}},
		{"func-phantom", CodeFuncRange, func(t *testing.T, m *metadata.Metadata) {
			m.Funcs["ghost_fn"] = metadata.FuncInfo{Name: "ghost_fn", Entry: 0xdead00, End: 0xdead40}
		}},
		{"func-missing", CodeFuncRange, func(t *testing.T, m *metadata.Metadata) {
			for name := range m.Funcs {
				delete(m.Funcs, name)
				return
			}
		}},
		{"callsite-missing", CodeCallsiteMissing, func(t *testing.T, m *metadata.Metadata) {
			for ret := range m.Callsites {
				delete(m.Callsites, ret)
				return
			}
		}},
		{"callsite-kind-flip", CodeCallsiteKind, func(t *testing.T, m *metadata.Metadata) {
			for ret, cs := range m.Callsites {
				if cs.Kind == metadata.SiteDirect {
					cs.Kind = metadata.SiteIndirect
					m.Callsites[ret] = cs
					return
				}
			}
			t.Skip("no direct callsite to corrupt")
		}},
		{"wrapper-mismatch", CodeWrapperMismatch, func(t *testing.T, m *metadata.Metadata) {
			for nr, ct := range m.CallTypes {
				ct.Wrapper = "no_such_wrapper"
				m.CallTypes[nr] = ct
				return
			}
		}},
		{"indirect-target-dropped", CodeTargetMissing, func(t *testing.T, m *metadata.Metadata) {
			for name := range m.IndirectTargets {
				delete(m.IndirectTargets, name)
				return
			}
			t.Skip("no indirect targets to drop")
		}},
		{"site-sig-drift", CodeSiteInconsistent, func(t *testing.T, m *metadata.Metadata) {
			for addr, s := range m.IndirectSites {
				s.TypeSig = "fn(bogus)"
				m.IndirectSites[addr] = s
				return
			}
			t.Skip("no IndirectSites to corrupt")
		}},
		{"argsite-unmapped", CodeArgSiteUnmapped, func(t *testing.T, m *metadata.Metadata) {
			m.ArgSites[0xdead8] = metadata.ArgSite{Addr: 0xdead8, Caller: "ghost", Target: "open",
				Args: []metadata.ArgSpec{{Pos: 1, Kind: metadata.ArgConst, Const: 1}}}
		}},
		{"shadow-overlap", CodeShadowOverlap, func(t *testing.T, m *metadata.Metadata) {
			for addr, site := range m.ArgSites {
				if len(site.Args) > 0 {
					site.Args = append(site.Args, site.Args[0])
					m.ArgSites[addr] = site
					return
				}
			}
			t.Skip("no arg site to corrupt")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			art := compileApp(t, "nginx")
			tc.corrupt(t, art.Meta)
			rep := Run("nginx", art.Prog, art.Meta)
			if rep.Errors() == 0 {
				t.Fatalf("corruption went undetected:\n%s", rep.Render())
			}
			found := false
			for _, f := range rep.Findings {
				if f.Severity == SevError && strings.HasPrefix(f.Code, tc.code) {
					found = true
				}
			}
			if !found {
				t.Fatalf("expected an error with code %s, got:\n%s", tc.code, rep.Render())
			}
		})
	}
}

// TestResidualSurfaceShape: the residual report covers every callable
// syscall and never shows refinement growing the indirect surface.
func TestResidualSurfaceShape(t *testing.T) {
	for _, app := range workload.Apps {
		art := compileApp(t, app)
		rep := Run(app, art.Prog, art.Meta)
		if len(rep.Residual) != len(art.Meta.CallTypes) {
			t.Errorf("%s: %d residual rows for %d call types", app, len(rep.Residual), len(art.Meta.CallTypes))
		}
		for _, row := range rep.Residual {
			if row.IndirectRefined > row.IndirectCoarse {
				t.Errorf("%s: %s refined indirect surface %d > coarse %d",
					app, row.Name, row.IndirectRefined, row.IndirectCoarse)
			}
			if !row.Direct && !row.Indirect {
				t.Errorf("%s: %s is in CallTypes but neither direct nor indirect", app, row.Name)
			}
		}
	}
}

func TestAllowlist(t *testing.T) {
	allow := ParseAllowlist([]byte("# comment\n\nWRAP-DEAD ptrace\n  WRAP-DEAD chmod  \n"))
	if len(allow) != 2 || !allow["WRAP-DEAD ptrace"] || !allow["WRAP-DEAD chmod"] {
		t.Fatalf("ParseAllowlist = %v", allow)
	}
	rep := &Report{Findings: []Finding{
		{Severity: SevWarn, Code: "WRAP-DEAD", Location: "ptrace"},
		{Severity: SevWarn, Code: "WRAP-DEAD", Location: "execveat"},
	}}
	left := rep.Unallowed(allow)
	if len(left) != 1 || left[0].Location != "execveat" {
		t.Fatalf("Unallowed = %v", left)
	}
}
