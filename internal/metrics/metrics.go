// Package metrics implements the cluster-wide metrics layer of the
// paper's system management dimension (§2, third requirement): every
// component must be observable "according to one common scheme".  A
// Registry holds named counters, gauges and bounded latency histograms;
// the executive owns one per node and exports it two ways — over ordinary
// I2O frames (ExecMetricsGet, so any node can scrape any other through
// the same message fabric that carries data) and, optionally, over HTTP
// in Prometheus text or expvar-style JSON form (cmd/xdaqd -metrics).
//
// The same histograms carry the paper's whitebox measurement (§5,
// Table 1): the executive times demultiplexing, upcall, application,
// release, frameAlloc and frameFree into exec.* and pool.* histograms,
// and the GM transport its receive processing into pt.gm.processing.
// Their log-linear buckets keep every quantile within 1/32 of the exact
// sample, so wherever timing is on, Table 1's medians are one
// ExecMetricsGet scrape away.
//
// The hot path is lock-free: counters and gauges are single atomic
// operations, histogram observation is three.  Timestamp-taking call
// sites (the whitebox stages, queue wait time, poll-scan duration) check
// Enabled() first, so with timing disabled the instrumented paths cost
// one atomic load — preserving the payload-independent framework
// overhead of figure 6.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var enabled atomic.Bool

// Enable turns timing collection on or off globally.  Counters and gauges
// are always live (they are single atomic adds); Enable gates only the
// call sites that would need to read the clock: the whitebox dispatch
// stages, queue wait time and poll-scan duration.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether timing call sites should take timestamps.
// Instrumented code must check it before calling time.Now so that the
// disabled configuration costs nothing but this load.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter (ExecSysClear semantics).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: log-linear, as in HDR histograms.  Every
// power of two from 16 ns up is split into subBuckets equal-width
// buckets, and the first 16 buckets hold 1 ns each, so a bucket is never
// wider than 1/16 (6.25%) of the values it holds.  Bucket i holds the
// durations in (Bound(i-1), Bound(i)] nanoseconds (bucket 0 also holds
// 0); the bounds run from 1 ns to 2^maxExp ns (about 69 s), and a final
// overflow bucket holds everything longer.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	maxExp     = 36
	numBuckets = (maxExp - subBits + 1) * subBuckets
)

// bucketIndex maps a duration in nanoseconds to its bucket, overflow
// included, in constant time.
func bucketIndex(ns int64) int {
	if ns <= 1 {
		return 0
	}
	u := uint64(ns - 1)
	if u < subBuckets {
		return int(u)
	}
	e := bits.Len64(u) - 1
	i := (e-subBits+1)<<subBits + int(u>>uint(e-subBits)&(subBuckets-1))
	if i > numBuckets {
		i = numBuckets
	}
	return i
}

// lowerBound is the exclusive lower bound (ns) of bucket i.
func lowerBound(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	return int64(subBuckets+i&(subBuckets-1)) << uint(i>>subBits-1)
}

// Histogram is a bounded latency histogram with an atomic hot path:
// Observe is two counter adds and one bucket add — no locks, no loops,
// no allocation — and memory stays constant however many samples arrive.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [numBuckets + 1]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(ns))
	h.buckets[bucketIndex(ns)].Add(1)
}

// Since observes the time elapsed from start, for
// `defer h.Since(time.Now())`-style instrumentation.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// HistogramSnapshot is a consistent-enough copy of a histogram for
// reporting.  Buckets holds per-bucket (not cumulative) counts up to the
// last non-empty bucket; bucket i's upper bound is Bound(i), and index
// NumBuckets is the overflow bucket.
type HistogramSnapshot struct {
	Count    uint64
	SumNanos uint64
	Buckets  []uint64
}

// NumBuckets is the number of bounded buckets (a snapshot may carry one
// extra overflow bucket).
const NumBuckets = numBuckets

// Bound returns the inclusive upper bound in nanoseconds of bounded
// bucket i.
func Bound(i int) int64 { return lowerBound(i + 1) }

// Snapshot copies the histogram's state.  Trailing empty buckets are
// left out, so an idle histogram snapshots without a bucket slice.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	if s.Count == 0 {
		return s
	}
	last := numBuckets
	for last >= 0 && h.buckets[last].Load() == 0 {
		last--
	}
	s.Buckets = make([]uint64, last+1)
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Add folds o into s, so one report can cover several registries.
func (s *HistogramSnapshot) Add(o HistogramSnapshot) {
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	if len(o.Buckets) > len(s.Buckets) {
		s.Buckets = append(s.Buckets, make([]uint64, len(o.Buckets)-len(s.Buckets))...)
	}
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds: the
// midpoint of the bucket in which that rank falls, which is within half
// a bucket width — at most 1/32 of the value — of the exact sample.  The
// overflow bucket reports twice the largest bounded bound.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			if i >= numBuckets {
				break
			}
			return (lowerBound(i) + 1 + Bound(i)) / 2
		}
	}
	return 2 * Bound(numBuckets-1)
}

// Mean returns the mean observed duration in nanoseconds.
func (s HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return int64(s.SumNanos / s.Count)
}

// Kind tags a sample in a registry snapshot.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota

	// KindGauge is an instantaneous value (including sampled funcs).
	KindGauge

	// KindHistogram is a latency distribution.
	KindHistogram
)

// Sample is one named metric in a snapshot.
type Sample struct {
	Name  string
	Kind  Kind
	Count uint64             // KindCounter
	Value int64              // KindGauge
	Histo *HistogramSnapshot // KindHistogram
}

// Registry is a named collection of metrics.  The zero value is ready to
// use; the executive creates one per node so that multi-node processes
// export per-node numbers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
	histos   map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry used by components created outside
// an executive's scope (standalone transports, tests).
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Func registers (or replaces) a sampled gauge: fn is called at snapshot
// time.  Use it to surface values a subsystem already maintains — queue
// depths, pool statistics — without adding a second counter to its hot
// path.
func (r *Registry) Func(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcs == nil {
		r.funcs = make(map[string]func() int64)
	}
	r.funcs[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histos == nil {
		r.histos = make(map[string]*Histogram)
	}
	h, ok := r.histos[name]
	if !ok {
		h = &Histogram{}
		r.histos[name] = h
	}
	return h
}

// Snapshot returns every metric's current value, sorted by name.  Sampled
// funcs are evaluated here; a panicking func yields zero rather than
// taking the scrape down.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+len(r.histos))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Kind: KindCounter, Count: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	histos := make(map[string]*Histogram, len(r.histos))
	for name, h := range r.histos {
		histos[name] = h
	}
	r.mu.Unlock()

	for name, fn := range funcs {
		out = append(out, Sample{Name: name, Kind: KindGauge, Value: safeCall(fn)})
	}
	for name, h := range histos {
		s := h.Snapshot()
		out = append(out, Sample{Name: name, Kind: KindHistogram, Histo: &s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func safeCall(fn func() int64) (v int64) {
	defer func() { _ = recover() }()
	return fn()
}
