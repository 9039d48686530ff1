package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"xdaq/internal/benchlab"
	"xdaq/internal/metrics"
)

func TestTable1Rendering(t *testing.T) {
	var gmh, demux metrics.Histogram
	gmh.Observe(2920 * time.Nanosecond)
	demux.Observe(220 * time.Nanosecond)
	var b strings.Builder
	writeTable1(&b, []benchlab.WhiteboxRow{
		{Activity: "pt.gm.processing", Paper: 2.92, Hist: gmh.Snapshot()},
		{Activity: "exec.demux", Paper: 0.22, Hist: demux.Snapshot()},
	})
	lines := strings.Split(b.String(), "\n")
	// Activity, paper, p50, p99, samples.  2920 ns falls in the
	// (2816, 2944] ns bucket and is reported at its midpoint.
	for i, want := range [][]string{
		{"pt.gm.processing", "2.92", "2.88", "2.88", "1"},
		{"exec.demux", "0.22", "0.22", "0.22", "1"},
		{"sum", "of", "overhead", "3.14", "3.10"},
	} {
		if len(lines) <= i+1 {
			t.Fatalf("table too short:\n%s", b.String())
		}
		f := strings.Fields(lines[i+1])
		if len(f) > len(want) {
			f = f[:len(want)]
		}
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("row %d = %q, want %q:\n%s", i, f, want, b.String())
		}
	}
}
