package main

import (
	"encoding/json"
	"io"
)

// metricDef names one reported number.  Bound is set only for end-to-end
// metrics: the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the cluster sees.  Every workload
// reports every one: an op is a durably stored event on the DAQ
// workloads and a completed round trip on rpc-small; rtt_* is the
// open-loop echo probe on the DAQ workloads and the closed-loop callers
// on rpc-small; ctl_rtt_* is the operator scrape on all three.  Each
// bound is the largest allowed: the host's speed drifts between runs on
// a shared 2-core VM (README.md, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"payload_mb_s", "MB/s", "higher", 0.25},
	{"rtt_p50_us", "us", "lower", 0.25},
	{"ctl_rtt_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's numbers, one or more per layer on the
// data path.  A layer a workload bypasses reports 0.  The two tail
// latencies lead the list: they are end-to-end figures, but their
// run-to-run spread on a shared 2-core host is too wide to gate on.
var perLayer = []metricDef{
	{Name: "rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "ctl_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "proc.driver.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.member.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.driver.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.member.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.driver.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.member.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.driver.gc_per_kop", Unit: "count", Better: "lower"},
	{Name: "proc.member.gc_per_kop", Unit: "count", Better: "lower"},
	{Name: "executive.driver.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "executive.member.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "executive.member.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "executive.member.queue_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "executive.local_rtt_us", Unit: "us", Better: "lower"},
	{Name: "pool.driver.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "pool.member.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "pool.driver.highwater_blocks", Unit: "count", Better: "lower"},
	{Name: "pool.member.highwater_blocks", Unit: "count", Better: "lower"},
	{Name: "pool.fails", Unit: "count", Better: "lower"},
	{Name: "pta.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "pta.wire_bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "pta.loopback_rtt_us", Unit: "us", Better: "lower"},
	{Name: "tcp.coalesce_factor", Unit: "ratio", Better: "higher"},
	{Name: "tcp.rendezvous_share", Unit: "ratio", Better: "lower"},
	{Name: "tcp.credit_stalls_per_kop", Unit: "count", Better: "lower"},
	{Name: "tcp.ring_full_per_kop", Unit: "count", Better: "lower"},
	{Name: "tcp.self_rtt_us", Unit: "us", Better: "lower"},
	{Name: "shm.ring_full_per_kop", Unit: "count", Better: "lower"},
	{Name: "daq.ru.handle_us_p50", Unit: "us", Better: "lower"},
	{Name: "daq.agg.handle_us_p50", Unit: "us", Better: "lower"},
	{Name: "daq.bu.handle_us_p50", Unit: "us", Better: "lower"},
	{Name: "daq.evm.handle_us_p50", Unit: "us", Better: "lower"},
	{Name: "daq.ru.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "daq.agg.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "daq.bu.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "daq.block_us_p50", Unit: "us", Better: "lower"},
	{Name: "daq.block_us_p99", Unit: "us", Better: "lower"},
	{Name: "daq.bu.stale_retries", Unit: "count", Better: "lower"},
	{Name: "daq.bu.lost_blocks", Unit: "count", Better: "lower"},
	{Name: "daq.agg.failed", Unit: "count", Better: "lower"},
	{Name: "storage.sw.handle_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.sw.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "storage.stalls_per_kevent", Unit: "count", Better: "lower"},
	{Name: "storage.bytes_per_flush", Unit: "B", Better: "higher"},
	{Name: "rpc.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "gen.ctl_late_us_p99", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "calib.memcpy_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "calib.spin_iter_per_us", Unit: "1/us", Better: "higher"},
	{Name: "samples.rtt", Unit: "count", Better: "higher"},
	{Name: "samples.ctl", Unit: "count", Better: "higher"},
	{Name: "samples.block", Unit: "count", Better: "higher"},
}

// runSeconds is how long one run measures.
const runSeconds = 40

// manifest is BENCHMARK.json: the contract a checkout's benchmark is
// judged by, generated from the tables above so the two cannot drift.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadRecord `json:"workloads"`
	EndToEnd   []metricDef      `json:"end_to_end"`
	PerLayer   []metricDef      `json:"per_layer"`
}

type workloadRecord struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func writeManifest(w io.Writer) error {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, wl := range workloads {
		if wl.Ungated {
			continue
		}
		m.Workloads = append(m.Workloads, workloadRecord{wl.Name, wl.Why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
