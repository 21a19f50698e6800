package metadata_test

import (
	"testing"

	"bastion/internal/bench"
	"bastion/internal/core"
	"bastion/internal/core/metadata"
	"bastion/internal/workload"
)

// TestFuncIndexMatchesScanOnApps: on the compiled metadata of every
// shipped application, the monitor's sorted index resolves every byte of
// the code region, guard gaps and both edges included, exactly as the
// linear Metadata.FuncAt scan does.
func TestFuncIndexMatchesScanOnApps(t *testing.T) {
	for _, app := range bench.Apps {
		t.Run(app, func(t *testing.T) {
			target, err := workload.NewTarget(app)
			if err != nil {
				t.Fatal(err)
			}
			art, err := core.Compile(target.Build(), core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			meta := art.Meta
			if err := meta.Validate(); err != nil {
				t.Fatal(err)
			}
			lo, hi := ^uint64(0), uint64(0)
			for _, fi := range meta.Funcs {
				lo, hi = min(lo, fi.Entry), max(hi, fi.End)
			}
			ix := metadata.NewFuncIndex(meta)
			resolved := 0
			for a := lo - 32; a < hi+32; a++ {
				got, want := ix.FuncAt(a), meta.FuncAt(a)
				if got != want {
					t.Fatalf("index FuncAt(%#x) = %q, scan = %q", a, got, want)
				}
				if got != "" {
					resolved++
				}
			}
			if resolved == 0 {
				t.Fatal("no address resolved to a function")
			}
			t.Logf("%d functions, %d of %d addresses resolved", len(meta.Funcs), resolved, hi+64-lo)
		})
	}
}
