package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// promName converts a dotted metric name ("exec.queue.wait.p0") to the
// Prometheus identifier charset, prefixed "xdaq_".
func promName(name string) string {
	var b strings.Builder
	b.Grow(5 + len(name))
	b.WriteString("xdaq_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters as `_total`, gauges plainly, and
// histograms with cumulative `_bucket{le="…"}` series in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, s := range r.Snapshot() {
		name := promName(s.Name)
		switch s.Kind {
		case KindCounter:
			if _, err := fmt.Fprintf(w, "# TYPE %s_total counter\n%s_total %d\n", name, name, s.Count); err != nil {
				return err
			}
		case KindGauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, s.Value); err != nil {
				return err
			}
		case KindHistogram:
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			// One le per power of two: the 16 sub-buckets between two
			// powers stay internal, so a scrape is no larger than a plain
			// doubling histogram's.
			var cum uint64
			for i := 0; i < NumBuckets; i++ {
				if i < len(s.Histo.Buckets) {
					cum += s.Histo.Buckets[i]
				}
				if b := Bound(i); b&(b-1) == 0 {
					if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(b)/1e9, cum); err != nil {
						return err
					}
				}
			}
			if len(s.Histo.Buckets) > NumBuckets {
				cum += s.Histo.Buckets[NumBuckets]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
				name, cum, name, float64(s.Histo.SumNanos)/1e9, name, s.Histo.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the registry as one flat expvar-style JSON object:
// counters and gauges as numbers, histograms as nested objects with
// count, sum and quantile estimates in nanoseconds.
func (r *Registry) WriteJSON(w io.Writer) error {
	samples := r.Snapshot()
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, s := range samples {
		sep := ","
		if i == 0 {
			sep = ""
		}
		var err error
		switch s.Kind {
		case KindCounter:
			_, err = fmt.Fprintf(w, "%s\n  %q: %d", sep, s.Name, s.Count)
		case KindGauge:
			_, err = fmt.Fprintf(w, "%s\n  %q: %d", sep, s.Name, s.Value)
		case KindHistogram:
			_, err = fmt.Fprintf(w, "%s\n  %q: {\"count\": %d, \"sum_ns\": %d, \"p50_ns\": %d, \"p90_ns\": %d, \"p99_ns\": %d}",
				sep, s.Name, s.Histo.Count, s.Histo.SumNanos,
				s.Histo.Quantile(0.50), s.Histo.Quantile(0.90), s.Histo.Quantile(0.99))
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// ServeHTTP implements http.Handler: Prometheus text by default, JSON
// when the request asks for it (?format=json or an Accept header naming
// application/json).  Mount it on cmd/xdaqd's -metrics listener.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	wantJSON := req.URL.Query().Get("format") == "json" ||
		strings.Contains(req.Header.Get("Accept"), "application/json")
	if wantJSON {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// Flatten renders a snapshot as sorted (name, value) pairs with scalar
// values only: counters as uint64, gauges as int64, histograms expanded
// to .count, .sum.ns, .p50.ns and .p99.ns rows.  This is the shape the
// executive encodes into an ExecMetricsGet reply, so a remote scrape and
// a local Snapshot see the same numbers.
func Flatten(samples []Sample) []FlatSample {
	out := make([]FlatSample, 0, len(samples))
	for _, s := range samples {
		switch s.Kind {
		case KindCounter:
			out = append(out, FlatSample{Name: s.Name, Uint: s.Count, IsUint: true})
		case KindGauge:
			out = append(out, FlatSample{Name: s.Name, Int: s.Value})
		case KindHistogram:
			out = append(out,
				FlatSample{Name: s.Name + ".count", Uint: s.Histo.Count, IsUint: true},
				FlatSample{Name: s.Name + ".sum.ns", Uint: s.Histo.SumNanos, IsUint: true},
				FlatSample{Name: s.Name + ".p50.ns", Int: s.Histo.Quantile(0.50)},
				FlatSample{Name: s.Name + ".p99.ns", Int: s.Histo.Quantile(0.99)},
			)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FlatSample is one scalar row of a flattened snapshot.
type FlatSample struct {
	Name   string
	Uint   uint64
	Int    int64
	IsUint bool
}
