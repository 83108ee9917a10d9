package obs

import (
	"sort"
	"strings"
)

// Registry holds named instruments. Instruments are identified by a name
// plus optional pre-formatted "key=value" labels; asking twice for the
// same identity returns the same handle, so call sites may either cache
// handles (hot paths) or look them up ad hoc (slow paths).
//
// The registry is not internally locked: like the rest of the simulator
// it relies on the single-threaded driver / coroutine discipline for
// mutual exclusion (handoffs are channel-synchronised, so -race stays
// clean).
//
// All methods are nil-safe: a nil *Registry returns nil handles and nil
// handles no-op.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// instrumentKey renders "name{l1,l2}" (or bare "name" without labels).
func instrumentKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + strings.Join(labels, ",") + "}"
}

// Counter is a monotonically increasing event count.
type Counter struct {
	key string
	v   uint64
}

// Counter returns (registering on first use) the counter for name and
// labels. Labels are pre-formatted "key=value" strings.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := instrumentKey(name, labels)
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{key: key}
		r.counters[key] = c
	}
	return c
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can go up and down.
type Gauge struct {
	key string
	v   float64
}

// Gauge returns (registering on first use) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := instrumentKey(name, labels)
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{key: key}
		r.gauges[key] = g
	}
	return g
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the gauge value by d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket distribution: counts[i] counts observations
// v <= bounds[i]; the final slot counts the overflow (+Inf bucket).
type Histogram struct {
	key    string
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// Histogram returns (registering on first use) the histogram for name and
// labels, with the given strictly increasing upper bounds. The bounds of
// the first registration win; later calls with the same identity reuse
// them.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := instrumentKey(name, labels)
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{
			key:    key,
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
		r.hists[key] = h
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket — the same estimate Prometheus's
// histogram_quantile makes. Observations in the overflow bucket clamp to
// the largest finite bound (a fixed-bucket histogram cannot see past it).
// Returns 0 on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	cum := uint64(0)
	for i, b := range h.bounds {
		prev := cum
		cum += h.counts[i]
		if float64(cum) >= rank {
			if h.counts[i] == 0 {
				return b
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if lower > b {
				lower = b
			}
			frac := (rank - float64(prev)) / float64(h.counts[i])
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (b-lower)*frac
		}
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return h.sum / float64(h.n)
}

// BucketCounts returns a copy of the per-bucket counts (one more entry
// than bounds; the last is the overflow bucket).
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	return append([]uint64(nil), h.counts...)
}

// EachHistogram calls fn for every registered histogram in sorted key
// order ("name{k=v,...}"). Nil-safe: a nil registry visits nothing.
func (r *Registry) EachHistogram(fn func(key string, h *Histogram)) {
	if r == nil {
		return
	}
	keys := make([]string, 0, len(r.hists))
	for k := range r.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, r.hists[k])
	}
}
