package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// nShards is the number of cache-line-padded cells a Counter spreads
// its increments over. Eight covers the concurrency levels the server
// runs at (admission control caps in-flight queries near 2×GOMAXPROCS)
// without bloating every counter.
const nShards = 8

// paddedInt64 occupies a full cache line so neighboring shards never
// false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// shardIdx picks a shard from the goroutine's stack address: distinct
// goroutines live on distinct stacks, so concurrent writers spread
// across cells without any per-goroutine state or runtime hooks. The
// uintptr conversion is only used as a hash, never dereferenced.
func shardIdx() int {
	var b byte
	return int((uintptr(unsafe.Pointer(&b)) >> 10) % nShards)
}

// Counter is a monotonically increasing metric, sharded to avoid
// hot-path contention. The zero value is unusable; obtain counters
// from a Registry.
type Counter struct {
	shards [nShards]paddedInt64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.shards[shardIdx()].v.Add(n)
}

// Value sums the shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
	fn   func() float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge value (CAS loop; gauges are not hot-path).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the gauge (calling the backing function if one was
// registered with GaugeFunc).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// DefLatencyBuckets is the default histogram bucketing for latencies
// observed in seconds: 100µs to 10s, roughly logarithmic — the range
// between a cached point query and the per-query deadline.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram accumulates observations into fixed buckets. Observe is
// lock-free: one atomic add on the bucket, one on the count, and a CAS
// on the float sum.
type Histogram struct {
	bounds []float64 // sorted inclusive upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// q-th observation. With no observations it returns 0; when the
// quantile lands in the overflow bucket it returns the highest bound
// (the histogram cannot resolve beyond it).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance inside a family.
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Int64, len(f.buckets)+1)
		s.h = h
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Lookups have get-or-create semantics: asking for
// an existing (name, kind) returns the registered instance, so call
// sites do not need to coordinate registration order.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Default is the process-wide registry storage-layer metrics register
// on (WAL, flush/compaction, prune memo). Server-scoped metrics live
// on per-Server registries instead; /metrics renders both.
var Default = NewRegistry()

func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, buckets: buckets, series: map[string]*series{}}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter returns the unlabeled counter name, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).get(nil).c
}

// CounterWith returns the counter for one label combination of a
// labeled family.
func (r *Registry) CounterWith(name, help string, labels []string, values ...string) *Counter {
	return r.family(name, help, kindCounter, labels, nil).get(values).c
}

// Gauge returns the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).get(nil).g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindGauge, nil, nil).get(nil).g.fn = fn
}

// GaugeFuncWith registers a scrape-time gauge for one label
// combination (e.g. per-catalog memtable size).
func (r *Registry) GaugeFuncWith(name, help string, labels []string, values []string, fn func() float64) {
	r.family(name, help, kindGauge, labels, nil).get(values).g.fn = fn
}

// Histogram returns the unlabeled histogram name with the given
// buckets (nil selects DefLatencyBuckets). Buckets are fixed at first
// registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	return r.family(name, help, kindHistogram, nil, buckets).get(nil).h
}

// HistogramWith returns the histogram for one label combination.
func (r *Registry) HistogramWith(name, help string, buckets []float64, labels []string, values ...string) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	return r.family(name, help, kindHistogram, labels, buckets).get(values).h
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelString renders {k="v",...} for the series, with extra appended
// (used for the histogram le label). Returns "" when empty.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraK, escapeLabel(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value; Prometheus accepts Go's shortest
// float form plus +Inf/NaN.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		sers := make([]*series, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
		}
		f.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range sers {
			ls := labelString(f.labels, s.labelValues, "", "")
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, ls, s.c.Value())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatFloat(s.g.Value()))
			case kindHistogram:
				var cum int64
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelString(f.labels, s.labelValues, "le", formatFloat(bound)), cum)
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelValues, "le", "+Inf"), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ls, formatFloat(s.h.Sum()))
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, ls, cum); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
