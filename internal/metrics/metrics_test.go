package metrics

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero counter")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Nanosecond)  // linear region: its own bucket
	h.Observe(3 * time.Microsecond) // log-linear region
	h.Observe(100 * time.Second)    // overflow
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	i := bucketIndex(3000)
	if s.Buckets[4] != 1 || s.Buckets[i] != 1 || s.Buckets[NumBuckets] != 1 {
		t.Fatalf("bucket placement wrong: [4]=%d [%d]=%d overflow=%d",
			s.Buckets[4], i, s.Buckets[i], s.Buckets[NumBuckets])
	}
	if Bound(i-1) >= 3000 || Bound(i) < 3000 {
		t.Fatalf("3000 ns landed in (%d, %d]", Bound(i-1), Bound(i))
	}
	if q := s.Quantile(0.1); q != 5 {
		t.Fatalf("p10 = %d, want 5", q)
	}
	if q := s.Quantile(0.5); q < 3000*31/32 || q > 3000*33/32 {
		t.Fatalf("p50 = %d, want 3000 within 1/32", q)
	}
	if q := s.Quantile(1.0); q != 2*Bound(NumBuckets-1) {
		t.Fatalf("p100 = %d, want overflow estimate", q)
	}
	if s.Mean() == 0 {
		t.Fatal("mean should be nonzero")
	}
}

func TestEmptySnapshot(t *testing.T) {
	var h Histogram
	e := h.Snapshot()
	if e.Count != 0 || e.SumNanos != 0 || e.Buckets != nil {
		t.Fatalf("empty snapshot %+v", e)
	}
	if e.Quantile(0.5) != 0 || e.Quantile(0.99) != 0 || e.Mean() != 0 {
		t.Fatalf("empty snapshot p50=%d p99=%d mean=%d, want all 0",
			e.Quantile(0.5), e.Quantile(0.99), e.Mean())
	}
}

// TestSnapshotStats checks the summary a report reads off a snapshot:
// the mean is exact (the sum is kept exactly), and the quantiles sit
// within half a sub-bucket (1/32) of the order statistics.
func TestSnapshotStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{4, 1, 3, 2, 5} {
		h.Observe(d * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.SumNanos != uint64(15*time.Microsecond) {
		t.Fatalf("count/sum %+v", s)
	}
	if m := s.Mean(); m != int64(3*time.Microsecond) {
		t.Fatalf("mean %d ns, want 3000", m)
	}
	for _, tc := range []struct {
		q    float64
		want int64 // ns
	}{{0.2, 1000}, {0.5, 3000}, {0.8, 4000}, {1, 5000}} {
		if got := s.Quantile(tc.q); math.Abs(float64(got-tc.want)) > float64(tc.want)/32 {
			t.Errorf("q%.1f = %d ns, want %d within 1/32", tc.q, got, tc.want)
		}
	}
}

// TestQuantileEvenCount pins the rank rule: with an even count the
// median is the lower middle sample, not the mean of the two middle ones.
// Below 32 ns the buckets are 1 ns wide, so the estimates are exact.
func TestQuantileEvenCount(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{10, 20, 30, 40} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 20 {
		t.Fatalf("p50 = %d, want 20", q)
	}
	if q := s.Quantile(0.51); q != 30 {
		t.Fatalf("p51 = %d, want 30", q)
	}
	if q := s.Quantile(1); q < 39 || q > 41 {
		t.Fatalf("p100 = %d, want 40 within one 2 ns bucket", q)
	}
}

// TestQuickQuantileWithinRange checks, for arbitrary sample sets, that
// count and sum are exact and that every quantile lies within half a
// sub-bucket of the range of the observed samples.
func TestQuickQuantileWithinRange(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		min, max, sum := int64(raw[0]), int64(raw[0]), uint64(0)
		for _, v := range raw {
			d := int64(v)
			h.Observe(time.Duration(d))
			sum += uint64(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		s := h.Snapshot()
		if s.Count != uint64(len(raw)) || s.SumNanos != sum {
			return false
		}
		lo, hi := min-min/32-1, max+max/32+1
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			if v := s.Quantile(q); v < lo || v > hi {
				return false
			}
		}
		top := s.Quantile(1)
		return math.Abs(float64(top-max)) <= float64(max)/32+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileAccuracy checks every quantile of seeded log-uniform
// durations from 10 ns to 10 ms against the exact order statistic: the
// estimate must sit within one sub-bucket (1/16 of the value).
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		name     string
		lo, hi   float64 // ns
		nSamples int
	}{
		{"10ns-1us", 10, 1e3, 5000},
		{"1us-100us", 1e3, 1e5, 5000},
		{"100us-10ms", 1e5, 1e7, 5000},
		{"10ns-10ms", 10, 1e7, 20000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			samples := make([]int64, tc.nSamples)
			for i := range samples {
				samples[i] = int64(tc.lo * math.Pow(tc.hi/tc.lo, rng.Float64()))
				h.Observe(time.Duration(samples[i]))
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
				got := s.Quantile(q)
				if d := math.Abs(float64(got - exact)); d > float64(exact)/16 {
					t.Errorf("q%.3f = %d, exact %d: off by %.0f ns, more than one sub-bucket", q, got, exact, d)
				}
			}
		})
	}
}

func TestBucketBoundsMonotonic(t *testing.T) {
	prev := int64(0)
	for i := 0; i < NumBuckets; i++ {
		b := Bound(i)
		if b <= prev {
			t.Fatalf("Bound(%d) = %d not above Bound(%d) = %d", i, b, i-1, prev)
		}
		// Each bound is the largest value its bucket holds.
		if got := bucketIndex(b); got != i {
			t.Fatalf("bucketIndex(Bound(%d)=%d) = %d", i, b, got)
		}
		if got := bucketIndex(b + 1); got != i+1 {
			t.Fatalf("bucketIndex(Bound(%d)+1) = %d, want %d", i, got, i+1)
		}
		// No bucket is wider than 1/16 of the values it holds.
		if w := b - prev; i >= subBuckets && w*subBuckets > prev+1 {
			t.Fatalf("bucket %d is %d ns wide for values from %d ns", i, w, prev+1)
		}
		prev = b
	}
	if top := Bound(NumBuckets - 1); top != 1<<maxExp {
		t.Fatalf("top bound %d, want 2^%d", top, maxExp)
	}
}

func TestObserveAllocatesNothing(t *testing.T) {
	var h Histogram
	d := time.Duration(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		d = d*3 + 1
	}); n != 0 {
		t.Fatalf("Observe allocates %.1f times per call", n)
	}
}

func TestHistogramSince(t *testing.T) {
	var h Histogram
	h.Since(time.Now().Add(-time.Millisecond))
	if s := h.Snapshot(); s.Count != 1 || s.Quantile(0.5) < int64(time.Millisecond)*31/32 {
		t.Fatalf("Since recorded %+v", s)
	}
}

func TestSnapshotAdd(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	b.Observe(10)
	b.Observe(time.Millisecond)
	var sum HistogramSnapshot
	sum.Add(a.Snapshot())
	sum.Add(b.Snapshot())
	if sum.Count != 3 || sum.SumNanos != 20+uint64(time.Millisecond) {
		t.Fatalf("sum %+v", sum)
	}
	if q := sum.Quantile(0.5); q != 10 {
		t.Fatalf("merged p50 = %d, want 10", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

// TestRegistryConcurrentObserve looks a histogram up by name from many
// goroutines at once: they all reach the same one, and no sample is lost.
func TestRegistryConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Histogram("conc").Observe(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	s := r.Histogram("conc").Snapshot()
	if s.Count != 8000 || s.SumNanos != 8*999*1000/2 {
		t.Fatalf("count %d sum %d, want 8000 and %d", s.Count, s.SumNanos, 8*999*1000/2)
	}
	if n := len(r.Snapshot()); n != 1 {
		t.Fatalf("registry holds %d metrics, want 1", n)
	}
}

func TestRegistryHistogramIdentityAndOrder(t *testing.T) {
	r := NewRegistry()
	b := r.Histogram("b-probe")
	if r.Histogram("b-probe") != b {
		t.Fatal("Histogram not idempotent")
	}
	r.Histogram("a-probe")
	s := r.Snapshot()
	if len(s) != 2 || s[0].Name != "a-probe" || s[1].Name != "b-probe" {
		t.Fatalf("snapshot order: %+v", s)
	}
	for _, v := range s {
		if v.Kind != KindHistogram || v.Histo == nil {
			t.Fatalf("%s sampled as kind %d", v.Name, v.Kind)
		}
	}
}

func TestSnapshotSortedAndFuncs(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Gauge("a").Set(1)
	r.Func("m", func() int64 { return 42 })
	r.Func("panics", func() int64 { panic("boom") })
	r.Histogram("h").Observe(time.Millisecond)
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram not idempotent")
	}
	s := r.Snapshot()
	if len(s) != 5 {
		t.Fatalf("snapshot has %d samples, want 5", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1].Name >= s[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s[i-1].Name, s[i].Name)
		}
	}
	for _, v := range s {
		if v.Name == "panics" && v.Value != 0 {
			t.Fatalf("panicking func sampled as %d, want 0", v.Value)
		}
		if v.Name == "m" && v.Value != 42 {
			t.Fatalf("func sampled as %d, want 42", v.Value)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("exec.dispatched").Add(3)
	r.Gauge("exec.queue.depth").Set(2)
	r.Histogram("pta.pollScan").Observe(5 * time.Microsecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE xdaq_exec_dispatched_total counter",
		"xdaq_exec_dispatched_total 3",
		"xdaq_exec_queue_depth 2",
		"# TYPE xdaq_pta_pollScan histogram",
		`xdaq_pta_pollScan_bucket{le="4.096e-06"} 0`,
		`xdaq_pta_pollScan_bucket{le="8.192e-06"} 1`,
		`xdaq_pta_pollScan_bucket{le="+Inf"} 1`,
		"xdaq_pta_pollScan_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One le per power of two from 1 ns to 2^maxExp ns, plus +Inf: the
	// sub-buckets do not reach the exposition.
	if n := strings.Count(out, "xdaq_pta_pollScan_bucket{"); n != maxExp+2 {
		t.Fatalf("%d le series, want %d", n, maxExp+2)
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("exec.dispatched").Add(9)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "xdaq_exec_dispatched_total 9") {
		t.Fatalf("prometheus body: %s", rec.Body.String())
	}

	req = httptest.NewRequest("GET", "/metrics?format=json", nil)
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"exec.dispatched": 9`) {
		t.Fatalf("json body: %s", rec.Body.String())
	}
}

func TestFlatten(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Histogram("h").Observe(time.Microsecond)
	flat := Flatten(r.Snapshot())
	names := make(map[string]FlatSample, len(flat))
	for _, f := range flat {
		names[f.Name] = f
	}
	if f, ok := names["c"]; !ok || !f.IsUint || f.Uint != 2 {
		t.Fatalf("flat counter: %+v", names["c"])
	}
	for _, want := range []string{"h.count", "h.sum.ns", "h.p50.ns", "h.p99.ns"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("flatten missing %q (have %v)", want, flat)
		}
	}
}

func TestEnableGate(t *testing.T) {
	Enable(false)
	if Enabled() {
		t.Fatal("expected disabled")
	}
	Enable(true)
	if !Enabled() {
		t.Fatal("expected enabled")
	}
	Enable(false)
}
