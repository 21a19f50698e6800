package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Fixed histogram bucket bounds. Buckets are cumulative-upper-bound style:
// a value lands in the first bucket whose bound is >= v, or the overflow
// bucket past the last bound. Bounds are fixed (never derived from data)
// so two runs always bucket identically.
var (
	// CycleBuckets spans monitor per-trap costs: a hook-only trap is a
	// few hundred cycles, a full fetch+check trap a few thousand, and a
	// deep pointee walk tens of thousands.
	CycleBuckets = []uint64{500, 1000, 2000, 4000, 8000, 16000, 32000, 64000}
	// DepthBuckets spans stack-unwind depths (the paper reports 2–22).
	DepthBuckets = []uint64{1, 2, 4, 8, 16, 32, 64}
	// ByteBuckets spans pointee bytes verified per trap.
	ByteBuckets = []uint64{16, 64, 256, 1024, 4096}
)

// Counter is a monotonically increasing metric. Its storage is either
// owned or bound to an external uint64 (a plain field its owner
// increments).
type Counter struct {
	name string
	own  uint64
	ptr  *uint64
}

// Add adds n.
func (c *Counter) Add(n uint64) { *c.ptr += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return *c.ptr }

// Histogram is a fixed-bucket distribution. The last bucket is the
// overflow bucket for values above every bound.
type Histogram struct {
	name    string
	bounds  []uint64
	buckets []uint64
	count   uint64
	sum     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i]++
			return
		}
	}
	h.buckets[len(h.bounds)]++
}

// Mean returns sum/count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// QuantileOverflow is Quantile's result when the requested rank falls in
// the overflow bucket: every configured bound lies below the quantile, so
// no finite upper bound can be reported.
const QuantileOverflow = ^uint64(0)

// Quantile returns the q-quantile of the recorded distribution under the
// upper-bound convention: the smallest configured bucket bound b such that
// at least ⌈q·count⌉ observations are ≤ b. The result is exact with
// respect to the fixed buckets (the true quantile lies in the returned
// bucket) and deterministic — no interpolation, no floating-point
// accumulation. q is clamped to (0, 1]; a quantile landing in the
// overflow bucket returns QuantileOverflow, and an empty histogram
// returns 0.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(1)
	if q > 0 {
		rank = uint64(math.Ceil(q * float64(h.count)))
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i]
		if cum >= rank {
			return bound
		}
	}
	return QuantileOverflow
}

// counterMap exposes an existing counter array indexed by slot (for
// example the monitor's per-syscall checks) as a family of counters named
// "name[label(slot)]", read through at render time. Slots still at zero
// render no row.
type counterMap struct {
	name   string
	counts []uint64
	label  func(slot int) string
}

// rows returns the non-zero slots' rows in ascending slot order.
func (cm *counterMap) rows() []CounterRow {
	var rows []CounterRow
	for s, v := range cm.counts {
		if v != 0 {
			rows = append(rows, CounterRow{Label: cm.label(s), Value: v})
		}
	}
	return rows
}

// Registry holds a run's counters and histograms and renders them
// deterministically, as sorted text (Render) or OpenMetrics
// (RenderOpenMetrics). It is not safe for concurrent use; each monitor owns one, and fleet
// aggregation merges them after the tenants finish.
type Registry struct {
	counters map[string]*Counter
	maps     map[string]*counterMap
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		maps:     map[string]*counterMap{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it (with owned storage) on
// first use.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		c.ptr = &c.own
		r.counters[name] = c
	}
	return c
}

// BindCounter registers a counter whose storage is the given variable:
// the variable remains the single storage location, its owner increments
// it directly, and the registry renders through the pointer.
func (r *Registry) BindCounter(name string, p *uint64) *Counter {
	c := &Counter{name: name, ptr: p}
	r.counters[name] = c
	return c
}

// BindCounterMap registers a counter array indexed by slot, rendered as
// "name[label(slot)]" rows in ascending slot order. The array is read at
// render time through counts, which must alias it; the caller keeps
// incrementing it directly.
func (r *Registry) BindCounterMap(name string, counts []uint64, label func(slot int) string) {
	r.maps[name] = &counterMap{name: name, counts: counts, label: label}
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls ignore bounds.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name, bounds: bounds, buckets: make([]uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// CounterRow is one rendered row of a bound counter map.
type CounterRow struct {
	Label string
	Value uint64
}

// CounterMapRows returns the named bound counter map's non-zero rows in
// ascending slot order, or nil for an unknown name. Renderers use it to
// present a counter family without reading the underlying array
// themselves.
func (r *Registry) CounterMapRows(name string) []CounterRow {
	cm := r.maps[name]
	if cm == nil {
		return nil
	}
	return cm.rows()
}

// sample is one rendered counter row.
type sample struct {
	name  string
	value uint64
}

// counterSamples flattens counters and bound counter maps into one sorted
// row list.
func (r *Registry) counterSamples() []sample {
	var out []sample
	for name, c := range r.counters {
		out = append(out, sample{name: name, value: c.Value()})
	}
	for _, cm := range r.maps {
		for _, row := range cm.rows() {
			out = append(out, sample{name: cm.name + "[" + row.Label + "]", value: row.Value})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedHists returns histograms in name order.
func (r *Registry) sortedHists() []*Histogram {
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Histogram, len(names))
	for i, name := range names {
		out[i] = r.hists[name]
	}
	return out
}

// Render returns the deterministic text form: counters sorted by name,
// then histograms sorted by name with their bucket rows.
func (r *Registry) Render() string {
	var b strings.Builder
	for _, s := range r.counterSamples() {
		fmt.Fprintf(&b, "counter %-40s %d\n", s.name, s.value)
	}
	for _, h := range r.sortedHists() {
		fmt.Fprintf(&b, "hist    %-40s count=%d sum=%d mean=%.1f |", h.name, h.count, h.sum, h.Mean())
		for i, bound := range h.bounds {
			fmt.Fprintf(&b, " le%d:%d", bound, h.buckets[i])
		}
		fmt.Fprintf(&b, " inf:%d\n", h.buckets[len(h.bounds)])
	}
	return b.String()
}

// Merge folds other's current values into r: counters (including bound
// counter-map rows, flattened to "name[label]") sum; histograms with the
// same name sum bucket-wise. Other is read, never modified. Merging a
// registry into a fresh one therefore snapshots it, which is how fleet
// tenants aggregate per-incarnation monitors.
//
// Two same-named histograms must agree on their bucket bounds,
// element-wise: every producer registers the same fixed bounds, so a
// mismatch is a programming error, and summing misaligned buckets would
// silently corrupt every quantile computed from the merged counts. Merge
// returns an error naming the first mismatched histogram; r is left
// partially merged and must be discarded by the caller.
func (r *Registry) Merge(other *Registry) error {
	for _, s := range other.counterSamples() {
		r.Counter(s.name).Add(s.value)
	}
	for _, oh := range other.sortedHists() {
		h := r.Histogram(oh.name, oh.bounds)
		if !slices.Equal(h.bounds, oh.bounds) {
			return fmt.Errorf("obs: merge histogram %q: bucket bounds differ (%v vs %v)",
				oh.name, h.bounds, oh.bounds)
		}
		h.count += oh.count
		h.sum += oh.sum
		for i := range oh.buckets {
			h.buckets[i] += oh.buckets[i]
		}
	}
	return nil
}
