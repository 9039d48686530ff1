// Command benchtab regenerates the paper's evaluation artifacts — the
// figure 6 latency series, the Table 1 whitebox breakdown, the §5
// allocator ablation and the §6.2 ORB comparison — plus the design
// ablations indexed in DESIGN.md, printing each next to the values the
// paper reports.
//
// Absolute numbers will differ (the substrate is a simulated fabric on a
// modern machine, not a Pentium II with a Myrinet NIC); what must hold is
// the shape: who wins, by roughly what factor, and that the framework
// overhead is constant in payload size.
//
// Usage:
//
//	benchtab [-experiment fig6|table1|alloc|orb|polling|parallel|priority|all]
//	         [-iters N] [-payload BYTES]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"xdaq/internal/benchlab"
)

var (
	experiment = flag.String("experiment", "all", "which experiment to run: fig6, table1, alloc, orb, polling, parallel, priority or all")
	iters      = flag.Int("iters", 2000, "calls per measurement point (the paper used 100000)")
	payload    = flag.Int("payload", 64, "payload bytes for the fixed-size experiments")
)

func main() {
	flag.Parse()
	run := func(name string, fn func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("fig6", fig6)
	run("table1", table1)
	run("alloc", alloc)
	run("orb", orbCompare)
	run("polling", polling)
	run("parallel", parallel)
	run("priority", priority)
	switch *experiment {
	case "all", "fig6", "table1", "alloc", "orb", "polling", "parallel", "priority":
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func fig6() error {
	fmt.Println("== Figure 6: GM/XDAQ blackbox ping-pong latencies (one-way, µs) ==")
	fmt.Println("   paper testbed: PII 400 MHz, Myrinet/GM 1.1.3; overhead fit y = -7e-05x + 9.105")
	res, err := benchlab.RunFig6(*iters, "table")
	if err != nil {
		return err
	}
	fmt.Printf("%10s %14s %14s %14s\n", "bytes", "XDAQ/GM", "GM direct", "overhead")
	for i := range res.XDAQ {
		fmt.Printf("%10d %14.2f %14.2f %14.2f\n",
			res.XDAQ[i].Bytes, us(res.XDAQ[i].OneWay), us(res.Direct[i].OneWay), us(res.Overhead[i].OneWay))
	}
	fmt.Printf("\nlinear fits (µs = slope*bytes + intercept):\n")
	fmt.Printf("  %-12s slope=%+.6f  intercept=%8.3f\n", "XDAQ/GM", res.FitXDAQ.Slope, res.FitXDAQ.Intercept)
	fmt.Printf("  %-12s slope=%+.6f  intercept=%8.3f\n", "GM direct", res.FitDirect.Slope, res.FitDirect.Intercept)
	fmt.Printf("  %-12s slope=%+.6f  intercept=%8.3f   (paper: slope=-0.00007 intercept=9.105)\n",
		"overhead", res.FitOverhead.Slope, res.FitOverhead.Intercept)
	fmt.Printf("\nshape check: overhead is payload-independent when |slope*4096| << intercept: %.3f << %.3f\n\n",
		abs(res.FitOverhead.Slope*4096), res.FitOverhead.Intercept)
	return nil
}

func table1() error {
	fmt.Println("== Table 1: µseconds spent in the XDAQ framework (whitebox, histogram medians) ==")
	rows, err := benchlab.RunTable1(*iters, *payload, "table")
	if err != nil {
		return err
	}
	writeTable1(os.Stdout, rows)
	return nil
}

// writeTable1 prints the Table 1 rows next to the paper's medians and
// sums the framework overhead.
func writeTable1(w io.Writer, rows []benchlab.WhiteboxRow) {
	fmt.Fprintf(w, "%-24s %12s %12s %10s %9s\n", "Activity", "paper (µs)", "here (µs)", "p99 (µs)", "samples")
	var paperSum, hereSum float64
	for _, row := range rows {
		p50 := us(time.Duration(row.Hist.Quantile(0.5)))
		fmt.Fprintf(w, "%-24s %12.2f %12.2f %10.2f %9d\n",
			row.Activity, row.Paper, p50, us(time.Duration(row.Hist.Quantile(0.99))), row.Hist.Count)
		if row.Activity != "pool.frameAlloc" && row.Activity != "pool.frameFree" {
			paperSum += row.Paper
			hereSum += p50
		}
	}
	fmt.Fprintf(w, "%-24s %12.2f %12.2f   (frameAlloc/frameFree are cross checks, not summed)\n\n",
		"sum of overhead", paperSum, hereSum)
}

func alloc() error {
	fmt.Println("== §5 allocator ablation: original fixed pool vs optimized table pool ==")
	fmt.Println("   paper: blackbox overhead 8.9 µs (fixed, s=0.6) -> 4.9 µs (table, s=0.8)")
	res, err := benchlab.RunAllocAblation(*iters, *payload)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %16s %18s\n", "allocator", "one-way (µs)", "overhead (µs)")
	for _, r := range res {
		fmt.Printf("%-10s %16.2f %18.2f\n", r.Allocator, us(r.OneWay), us(r.Overhead))
	}
	if len(res) == 2 && res[1].Overhead > 0 {
		fmt.Printf("ratio fixed/table overhead: %.2fx   (paper: %.2fx)\n\n",
			float64(res[0].Overhead)/float64(res[1].Overhead), 8.9/4.9)
	}
	return nil
}

func orbCompare() error {
	fmt.Println("== §6.2 comparison: CORBA-like ORB vs XDAQ over the same fabric ==")
	fmt.Println("   paper: ORB core overhead ~90 µs/call vs XDAQ ~9 µs")
	orbLat, err := benchlab.RunORB(*iters, *payload)
	if err != nil {
		return err
	}
	rig, err := benchlab.NewGMRig(benchlab.RigConfig{})
	if err != nil {
		return err
	}
	xdaqLat, err := rig.MeasureXDAQ(*payload, *iters)
	rig.Close()
	if err != nil {
		return err
	}
	direct, err := benchlab.NewGMDirect()
	if err != nil {
		return err
	}
	base, err := direct.Measure(*payload, *iters)
	direct.Close()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %16s %18s\n", "middleware", "one-way (µs)", "overhead (µs)")
	fmt.Printf("%-12s %16.2f %18.2f\n", "ORB", us(orbLat), us(orbLat-base))
	fmt.Printf("%-12s %16.2f %18.2f\n", "XDAQ", us(xdaqLat), us(xdaqLat-base))
	if xdaqLat > base {
		fmt.Printf("overhead ratio ORB/XDAQ: %.1fx   (paper: ~10x)\n\n",
			float64(orbLat-base)/float64(xdaqLat-base))
	}
	return nil
}

func polling() error {
	fmt.Println("== §4 ablation: peer transport polling vs task mode ==")
	fmt.Println("   paper: a slow PT in the polling set negates the benefits of a fast interface")
	res, err := benchlab.RunPollingVsTask(*iters, *payload, 100*time.Microsecond)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %16s\n", "configuration", "one-way (µs)")
	for _, r := range res {
		fmt.Printf("%-28s %16.2f\n", r.Config, us(r.OneWay))
	}
	fmt.Println()
	return nil
}

func parallel() error {
	fmt.Println("== §4 ablation: multiple peer transports in parallel ==")
	fmt.Println("   paper: per-device routes allow sending/receiving over several PTs in parallel")
	res, err := benchlab.RunParallelTransports(2*time.Second, 131072, 4)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %18s\n", "transports", "round trips/s")
	for _, r := range res {
		fmt.Printf("%-12d %18.0f\n", r.Transports, r.Throughput)
	}
	if len(res) == 2 && res[0].Throughput > 0 {
		fmt.Printf("scaling: %.2fx\n\n", res[1].Throughput/res[0].Throughput)
	}
	return nil
}

func priority() error {
	fmt.Println("== §3.2 ablation: seven-level priority scheduling ==")
	fmt.Println("   an urgent probe bypasses a 512-frame bulk backlog; a bulk probe waits behind it")
	res, err := benchlab.RunPriorityDispatch(min(*iters, 200), 512)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %26s\n", "priority", "gate-to-reply latency (µs)")
	for _, r := range res {
		fmt.Printf("%-10d %26.2f\n", r.Priority, us(r.Latency))
	}
	if len(res) == 2 && res[0].Latency > 0 {
		fmt.Printf("bulk/urgent latency ratio: %.1fx\n\n", float64(res[1].Latency)/float64(res[0].Latency))
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
