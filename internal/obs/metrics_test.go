package obs

import (
	"strings"
	"testing"
)

func fixtureRegistry() *Registry {
	r := NewRegistry()
	r.Counter("traps_total").Add(4)
	hits := uint64(17)
	r.BindCounter("cache_hits_total", &hits)
	// Slot 1 never counted, so it renders no row.
	checks := []uint64{1, 0, 2, 3}
	r.BindCounterMap("checks_total", checks, func(slot int) string {
		return []string{"mmap", "munmap", "mprotect", "accept4"}[slot]
	})
	h := r.Histogram("trap_cycles", CycleBuckets)
	for _, v := range []uint64{480, 3810, 5304, 2925, 70000} {
		h.Observe(v)
	}
	d := r.Histogram("unwind_depth", DepthBuckets)
	for _, v := range []uint64{3, 4, 1, 3} {
		d.Observe(v)
	}
	return r
}

func TestRegistryRenderGolden(t *testing.T) {
	checkGolden(t, "metrics.txt.golden", fixtureRegistry().Render())
}

func TestRegistryDeterministic(t *testing.T) {
	a, b := fixtureRegistry(), fixtureRegistry()
	if a.Render() != b.Render() || a.RenderOpenMetrics() != b.RenderOpenMetrics() {
		t.Fatal("registry rendering not deterministic across identical builds")
	}
}

func TestBoundCounterReadsThrough(t *testing.T) {
	r := NewRegistry()
	var field uint64
	c := r.BindCounter("bound", &field)
	field = 41
	c.Inc()
	if field != 42 || c.Value() != 42 {
		t.Fatalf("bound counter: field=%d value=%d", field, c.Value())
	}
	if !strings.Contains(r.Render(), "bound") || !strings.Contains(r.Render(), "42") {
		t.Fatalf("render missing bound counter:\n%s", r.Render())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []uint64{10, 20})
	for _, v := range []uint64{5, 10, 11, 20, 21, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 5+10+11+20+21+1000 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	want := []uint64{2, 2, 2} // le10, le20, inf
	for i, n := range want {
		if h.buckets[i] != n {
			t.Fatalf("bucket %d = %d, want %d", i, h.buckets[i], n)
		}
	}
	if got := r.Histogram("h", []uint64{99}); got != h {
		t.Fatal("Histogram must return the existing histogram for a known name")
	}
}

func TestRegistryMerge(t *testing.T) {
	dst := NewRegistry()
	if err := dst.Merge(fixtureRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := dst.Merge(fixtureRegistry()); err != nil {
		t.Fatal(err)
	}

	if got := dst.Counter("traps_total").Value(); got != 8 {
		t.Fatalf("merged traps_total = %d, want 8", got)
	}
	// Bound counter-map rows flatten into plain counters on merge.
	if got := dst.Counter("checks_total[accept4]").Value(); got != 6 {
		t.Fatalf("merged checks_total[accept4] = %d, want 6", got)
	}
	h := dst.Histogram("trap_cycles", CycleBuckets)
	if h.Count() != 10 {
		t.Fatalf("merged hist count = %d, want 10", h.Count())
	}
	one := fixtureRegistry().Histogram("trap_cycles", CycleBuckets)
	if h.Sum() != 2*one.Sum() {
		t.Fatalf("merged hist sum = %d, want %d", h.Sum(), 2*one.Sum())
	}
	// Merge must not disturb the source.
	src := fixtureRegistry()
	before := src.Render()
	if err := NewRegistry().Merge(src); err != nil {
		t.Fatal(err)
	}
	if src.Render() != before {
		t.Fatal("Merge modified its source registry")
	}
}

// TestRegistryMergeBoundsMismatch: same-named histograms with different
// bucket bounds must make Merge fail loudly — summing misaligned buckets
// would silently corrupt every quantile computed from the result.
func TestRegistryMergeBoundsMismatch(t *testing.T) {
	mismatches := []struct {
		name   string
		bounds []uint64
	}{
		{"different length", []uint64{10, 20, 30}},
		{"same length, different bound", []uint64{10, 25}},
	}
	for _, tc := range mismatches {
		dst := NewRegistry()
		dst.Histogram("h", []uint64{10, 20}).Observe(5)
		src := NewRegistry()
		src.Histogram("h", tc.bounds).Observe(5)
		err := dst.Merge(src)
		if err == nil {
			t.Fatalf("%s: Merge accepted mismatched bounds", tc.name)
		}
		if !strings.Contains(err.Error(), `"h"`) {
			t.Fatalf("%s: error does not name the histogram: %v", tc.name, err)
		}
	}
}

// TestHistogramQuantile pins the upper-bound convention: Quantile returns
// the smallest configured bound covering ⌈q·count⌉ observations, the
// overflow sentinel past the last bound, and 0 when empty.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []uint64{10, 20, 40})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	// 10 observations: 5 in le10, 3 in le20, 1 in le40, 1 overflow.
	for _, v := range []uint64{1, 2, 3, 4, 10, 11, 15, 20, 33, 99} {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want uint64
	}{
		{0.10, 10},               // rank 1
		{0.50, 10},               // rank 5, cumulative le10 = 5
		{0.51, 20},               // rank 6 crosses into le20
		{0.80, 20},               // rank 8, cumulative le20 = 8
		{0.90, 40},               // rank 9
		{0.99, QuantileOverflow}, // rank 10 lands in overflow
		{1.00, QuantileOverflow},
		{-1, 10},                // clamped to rank 1
		{0, 10},                 // clamped to rank 1
		{2.0, QuantileOverflow}, // clamped to rank count
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	// A distribution entirely within the bounds never returns the sentinel.
	exact := NewRegistry().Histogram("e", []uint64{10})
	exact.Observe(10)
	if got := exact.Quantile(1); got != 10 {
		t.Fatalf("p100 of in-bounds distribution = %d, want 10", got)
	}
}

// Inc adds one.
func (c *Counter) Inc() { *c.ptr++ }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum }
