package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// report turns a finished run into metrics, the human-readable table and
// the result line.
type report struct {
	d        *driver
	phases   []*phase
	gen      *generators
	drv, mem counters // final snapshots

	setupS, calib      float64
	calibSpin          float64 // hostSpeed, iterations per µs
	local, loop, xproc float64 // ladder rungs, µs

	spans     spanStats
	spanCount int
}

// collectSpans merges the member's spans with the driver's and writes the
// merged trace under .bench_build/trace.
func (rp *report) collectSpans(r *rig) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	memPath := filepath.Join(r.dir, "member.spans")
	rep, err := r.mem.call(command{Op: "spans", Path: memPath})
	if err != nil {
		return err
	}
	spans, err := readSpans(memPath)
	if err != nil {
		return err
	}
	r.rec.mu.Lock()
	spans = append(spans, r.rec.spans...)
	dropped := r.rec.dropped + rep.Dropped
	r.rec.mu.Unlock()
	if dropped > 0 {
		rp.d.violation("trace dropped %d spans past the %d-span buffer", dropped, maxSpans)
	}
	var all []span
	rp.spans, all = analyzeSpans(spans)
	rp.spanCount = len(all)
	return writeSpans(filepath.Join(dir, rp.d.w.Name+".jsonl"), all)
}

// latencies returns the open-loop latencies (done-due, µs), the
// generator lateness (sent-due, µs) and the largest queue depth seen,
// over the samples due inside ph.  Failed samples are counted in the
// result's failures, not here.
func latencies(samples []sample, ph *phase) (lat, late []float64, depth float64) {
	for _, s := range samples {
		if s.failed || !ph.inside(s.due) {
			continue
		}
		lat = append(lat, float64(s.done-s.due)/1e3)
		late = append(late, float64(s.sent-s.due)/1e3)
		depth = max(depth, s.depth)
	}
	return lat, late, depth
}

func (rp *report) build() {
	d, res := rp.d, &rp.d.res
	a := rp.phases[0]
	secs := a.wall.Seconds()
	opsName := "events"
	rtt := a.rtts
	if d.w.Kind == "daq" {
		rtt, _, _ = latencies(rp.gen.probe, a)
	} else {
		opsName = "calls"
	}
	ctl, late, depth := latencies(rp.gen.ctl, a)
	if len(rp.phases) > 1 {
		_, _, depthB := latencies(rp.gen.ctl, rp.phases[1])
		depth = max(depth, depthB)
	}
	nRTT, nCtl := len(rtt), len(ctl)
	ad, am := a.acc["driver"], a.acc["member"]

	e2e := map[string]float64{
		"setup_s":        rp.setupS,
		"ops_per_s":      a.median(func(r roundStat) float64 { return r.opsPerS }),
		"payload_mb_s":   a.median(func(r roundStat) float64 { return r.bytesPerS }) / 1e6,
		"rtt_p50_us":     quantile(rtt, 0.5),
		"ctl_rtt_p50_us": quantile(ctl, 0.5),
		"cpu_us_per_op":  a.median(func(r roundStat) float64 { return r.cpuPerOp }),
		"peak_rss_mb":    (rp.drv["hwm_kb"] + rp.mem["hwm_kb"]) / 1024,
	}

	both := func(key string) float64 { return ad[key] + am[key] }
	perKop := func(v float64) float64 { return ratio(v*1000, a.ops) }
	layer := map[string]float64{
		"rtt_p99_us":                       quantile(rtt, 0.99),
		"ctl_rtt_p99_us":                   quantile(ctl, 0.99),
		"proc.driver.cpu_us_per_op":        ratio(ad["cpu_us"], a.ops),
		"proc.member.cpu_us_per_op":        ratio(am["cpu_us"], a.ops),
		"proc.driver.allocs_per_op":        ratio(ad["mallocs"], a.ops),
		"proc.member.allocs_per_op":        ratio(am["mallocs"], a.ops),
		"proc.driver.alloc_bytes_per_op":   ratio(ad["alloc_bytes"], a.ops),
		"proc.member.alloc_bytes_per_op":   ratio(am["alloc_bytes"], a.ops),
		"proc.driver.gc_per_kop":           perKop(ad["num_gc"]),
		"proc.member.gc_per_kop":           perKop(am["num_gc"]),
		"executive.driver.frames_per_op":   ratio(ad["exec.dispatched"], a.ops),
		"executive.member.frames_per_op":   ratio(am["exec.dispatched"], a.ops),
		"executive.member.queue_depth_max": depth,
		"executive.local_rtt_us":           rp.local,
		"pool.driver.allocs_per_op":        ratio(ad["pool.allocs"], a.ops),
		"pool.member.allocs_per_op":        ratio(am["pool.allocs"], a.ops),
		"pool.driver.highwater_blocks":     rp.drv["pool.highwater"],
		"pool.member.highwater_blocks":     rp.mem["pool.highwater"],
		"pool.fails":                       both("pool.fails"),
		"pta.frames_per_op":                ratio(both("pta.sent"), a.ops),
		"pta.wire_bytes_per_payload_byte":  ratio(sumKeys(ad, "pta.pt.", ".sentBytes")+sumKeys(am, "pta.pt.", ".sentBytes"), a.payload),
		"pta.loopback_rtt_us":              rp.loop - rp.local,
		"tcp.coalesce_factor":              ratio(both("pt.tcp.batch.frames"), both("pt.tcp.batch.writes")),
		"tcp.rendezvous_share":             ratio(both("pt.tcp.rendezvous.sends"), both("pt.tcp.sent")),
		"tcp.credit_stalls_per_kop":        perKop(both("pt.tcp.credits.stalls")),
		"tcp.ring_full_per_kop":            perKop(both("pt.tcp.ring.full")),
		"tcp.self_rtt_us":                  rp.xproc - rp.loop,
		"shm.ring_full_per_kop":            perKop(both("pt.shm.ring.full")),
		"daq.bu.stale_retries":             float64(d.stale),
		"daq.bu.lost_blocks":               float64(d.lost),
		"daq.agg.failed":                   rp.mem["agg.failed"],
		"storage.stalls_per_kevent":        ratio(float64(a.sw.Stalls)*1000, float64(a.sw.Events)),
		"storage.bytes_per_flush":          ratio(float64(a.sw.Bytes), float64(a.sw.Flushes)),
		"gen.ctl_late_us_p99":              quantile(late, 0.99),
		"calib.memcpy_gb_s":                rp.calib,
		"calib.spin_iter_per_us":           rp.calibSpin,
		"samples.rtt":                      float64(nRTT),
		"samples.ctl":                      float64(nCtl),
	}
	if len(rp.phases) > 1 {
		b := rp.phases[1]
		wallUS := micros(b.wall)
		p50 := func(name string) float64 { return quantile(rp.spans.dur[name], 0.5) }
		busy := func(name string) float64 { return ratio(rp.spans.busy[name], wallUS) }
		layer["daq.ru.handle_us_p50"] = p50(spanRU)
		layer["daq.agg.handle_us_p50"] = p50(spanAgg)
		layer["daq.bu.handle_us_p50"] = p50(spanBU)
		layer["daq.evm.handle_us_p50"] = p50(spanEVM)
		layer["daq.ru.busy_frac"] = busy(spanRU)
		layer["daq.agg.busy_frac"] = busy(spanAgg)
		layer["daq.bu.busy_frac"] = busy(spanBU)
		layer["daq.block_us_p50"] = quantile(rp.spans.blocks, 0.5)
		layer["daq.block_us_p99"] = quantile(rp.spans.blocks, 0.99)
		layer["storage.sw.handle_us_p50"] = p50(spanSW)
		layer["storage.sw.busy_frac"] = busy(spanSW)
		layer["rpc.handler_us_p50"] = p50(spanEcho)
		layer["samples.block"] = float64(len(rp.spans.blocks))
		layer["executive.member.queue_wait_p99_us"] = queueWaitP99(rp.mem)
		layer["trace.overhead_frac"] = 1 - ratio(ratio(b.ops, b.wall.Seconds()), ratio(a.ops, secs))
	}

	// Attempted and failed: every op, scrape and probe the run issued.
	var attempted, failed int64
	if d.w.Kind == "daq" {
		attempted = int64(rp.mem["evm.allocated"])
		failed = attempted - int64(d.verified)
	} else {
		attempted, failed = d.calls, d.callFails
	}
	for _, s := range append(append([]sample(nil), rp.gen.ctl...), rp.gen.probe...) {
		attempted++
		if s.failed {
			failed++
		}
	}
	if n := int64(len(res.violations)); failed < n {
		failed = n
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0 && len(res.violations) == 0

	mode := "untraced"
	if d.traced {
		mode = "traced"
	}
	res.lines = append(res.lines,
		fmt.Sprintf("perfbench %s seed=%d seconds=%g %s: %d driver+member processes, %d setups", d.w.Name, d.seed, d.seconds, mode, 2, setupRepeats),
		fmt.Sprintf("calibration: memcpy %.2f GB/s, integer loop %.1f iterations/us, in-process Executive round trip %.2f us", rp.calib, rp.calibSpin, rp.local),
		fmt.Sprintf("measured %.2f s: %.0f %s (op = %s), %d rtt samples, %d scrape samples", secs, a.ops, opsName, opsName[:len(opsName)-1], nRTT, nCtl),
	)
	perRound := fmt.Sprintf("ops/s per round (%d):", len(a.rounds))
	for _, r := range a.rounds {
		perRound += fmt.Sprintf(" %.0f", r.opsPerS)
	}
	res.lines = append(res.lines, perRound)
	for _, m := range endToEnd {
		res.lines = append(res.lines, fmt.Sprintf("  %-34s %14.4f %s", m.Name, e2e[m.Name], m.Unit))
	}
	res.lines = append(res.lines, fmt.Sprintf("  %-34s %14.6f (%d of %d)", "fail_ratio", ratio(float64(failed), float64(attempted)), failed, attempted))
	res.lines = append(res.lines, "per-layer ("+mode+"):")
	for _, m := range perLayer {
		if v, ok := layer[m.Name]; ok {
			res.lines = append(res.lines, fmt.Sprintf("  %-34s %14.4f %s", m.Name, v, m.Unit))
		}
	}
	if d.traced {
		res.lines = append(res.lines, fmt.Sprintf("trace: %d spans in .bench_build/trace/%s.jsonl", rp.spanCount, d.w.Name))
	}

	res.Metrics = map[string]metric{}
	if d.traced {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metric{layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{e2e[m.Name], m.Unit}
		}
	}
}

// queueWaitP99 is the member's scheduler wait p99 at the busiest
// priority level, from the exec.queue.wait.p<N> histograms (filled only
// while metrics timing is on, i.e. in the traced phase).
func queueWaitP99(mem counters) float64 {
	var best, count float64
	for p := 0; p < 8; p++ {
		key := fmt.Sprintf("exec.queue.wait.p%d", p)
		if c := mem[key+".count"]; c > count {
			count, best = c, mem[key+".p99.ns"]/1e3
		}
	}
	return best
}
