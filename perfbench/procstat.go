package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is a flat snapshot of one process: its own resource usage
// plus whatever layer counters were read alongside.  Deltas between two
// snapshots give the work a window cost.
type counters map[string]float64

// selfCounters reads this process's CPU, allocation and peak-RSS figures.
func selfCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		"cpu_us":      float64(tvMicros(ru.Utime) + tvMicros(ru.Stime)),
		"mallocs":     float64(ms.Mallocs),
		"alloc_bytes": float64(ms.TotalAlloc),
		"num_gc":      float64(ms.NumGC),
		"hwm_kb":      float64(vmHWM()),
	}
}

func tvMicros(tv syscall.Timeval) int64 { return tv.Sec*1e6 + tv.Usec }

// vmHWM returns the process's peak resident set in KiB (0 when /proc is
// unavailable).
func vmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// addDelta accumulates end-start for every key of end into acc.
func addDelta(acc, start, end counters) {
	for k, v := range end {
		acc[k] += v - start[k]
	}
}

// quantile returns the q-quantile (nearest rank) of xs, sorting it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// speedSink keeps hostSpeed's loop from being optimised away.
var speedSink uint64

// hostSpeed is a calibration row beside memcpyGBs: how fast this host
// runs a fixed integer loop, in iterations per µs (median of five
// 200k-iteration samples, about 2 ms in all), measured once after the
// load.  It is reported, never used to scale or gate anything.
func hostSpeed() float64 {
	const n = 200000
	xs := make([]float64, 0, 5)
	x := uint64(1)
	for k := 0; k < 5; k++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		xs = append(xs, n/micros(time.Since(t)))
	}
	speedSink += x
	return quantile(xs, 0.5)
}
