package fleet

import (
	"sync"
	"testing"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
)

// TestArtifactsSingleflight: N goroutines requesting the same key get the
// same immutable artifact back, and the cache compiles exactly once —
// per program, per filter key, and per reload generation.
func TestArtifactsSingleflight(t *testing.T) {
	const n = 32
	arts := NewArtifacts()
	mcfg := monitor.DefaultConfig()

	var wg sync.WaitGroup
	compiled := make([]*core.Artifact, n)
	filters := make([]monitor.Config, n)
	gens := make([]*monitor.Generation, n)
	errs := make([]error, 3*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			compiled[i], errs[3*i] = arts.Compiled("nginx")
			filters[i], errs[3*i+1] = arts.Config("nginx", mcfg)
			gens[i], errs[3*i+2] = arts.Generation(1, "nginx", mcfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if compiled[i] != compiled[0] {
			t.Fatal("concurrent Compiled calls returned distinct artifacts")
		}
		if &filters[i].Filter[0] != &filters[0].Filter[0] {
			t.Fatal("concurrent Config calls returned distinct filter programs")
		}
		if gens[i] != gens[0] {
			t.Fatal("concurrent Generation calls returned distinct generations")
		}
	}
	if got := arts.Compiles(); got != 1 {
		t.Errorf("%d goroutines triggered %d program compiles, want 1", n, got)
	}
	if got := arts.FilterCompiles(); got != 1 {
		t.Errorf("%d goroutines triggered %d filter compiles, want 1", n, got)
	}
	if gens[0].ID != 1 || gens[0].FilterID == 0 {
		t.Errorf("generation malformed: %+v", gens[0])
	}
}

// TestArtifactsDistinctKeys: different filter-relevant configurations get
// their own cached filters rather than aliasing one entry.
func TestArtifactsDistinctKeys(t *testing.T) {
	arts := NewArtifacts()
	plain := monitor.DefaultConfig()
	tree := plain
	tree.TreeFilter = true
	if _, err := arts.Config("nginx", plain); err != nil {
		t.Fatal(err)
	}
	if _, err := arts.Config("nginx", tree); err != nil {
		t.Fatal(err)
	}
	if got := arts.FilterCompiles(); got != 2 {
		t.Errorf("distinct filter keys compiled %d filters, want 2", got)
	}
	if got := arts.Compiles(); got != 1 {
		t.Errorf("two filter keys recompiled the program: %d compiles, want 1", got)
	}
}
