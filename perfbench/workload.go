package main

import (
	"fmt"
	"time"

	"xdaq"
)

// workload is one named input set.  The driver hands the whole struct to
// the member process, which plugs its half of the wiring from it.
type workload struct {
	Name string
	Why  string
	Kind string // "daq" or "rpc"

	// DAQ wiring.  Aggs == 0 is the flat topology: the BU talks to every
	// RU directly and each grant is one event.
	RUs, FragSize int
	Aggs          int // aggregators, each covering RUs/Aggs readout units
	Range         int // events per EVM grant (block)
	Shm           bool
	Writers       int
	Pipeline      int // BU blocks in flight (the closed loop's window)
	StoreWindow   int // BU events awaiting a durable ack
	RoundEvents   int // events per storage round; each round's segments are verified and removed
	// ArenaSize is the storage writers' gather arena; 0 = the writer's
	// default (1 MiB).  daq-bulk's 512 KiB events get arenas that hold
	// 32 of them, so a writer is never full (AckFull).  The builder can
	// stall a round when an AckFull retry timer and the resend sweep
	// race; see README.md, "Known defect".
	ArenaSize int

	// RPC load.
	Callers     int
	PayloadSize int

	// Ungated workloads run by name but stay out of BENCHMARK.json, so no
	// change is judged by them.  See README.md, "Workloads".
	Ungated bool
}

// Rates of the open-loop generators: the operator scrape on every
// workload, the echo probe on the DAQ workloads.
const (
	ctlRate   = 100 // scrapes per second
	probeRate = 200 // echo calls per second
	probeSize = 64  // echo probe payload bytes
)

// retry is both processes' resend policy for transient transport
// errors: a full shm or TCP ring holds the sender back and resends,
// which is the backpressure the transports are built to give.  Without
// a policy a full ring fails the frame outright.  The short backoff cap
// keeps a held-back sender close behind the draining ring; the attempt
// count (minutes of backoff) means a slow receiver slows the run
// instead of losing a fragment, which the builder never re-requests.
var retry = xdaq.RetryPolicy{Attempts: 1_000_000, Backoff: 10 * time.Microsecond, MaxBackoff: 200 * time.Microsecond}

var workloads = []workload{
	{
		Name: "daq-tree",
		Why: "64 RUs x 512 B through 4 aggregators (8-event blocks) over TCP to BU + 2 writers: " +
			"per-frame and per-fragment costs dominate (dispatch, aggregator merge, allocations)",
		Kind: "daq", RUs: 64, FragSize: 512, Aggs: 4, Range: 8,
		Writers: 2, Pipeline: 4, StoreWindow: 64, RoundEvents: 4096,
	},
	{
		Name: "daq-bulk",
		Why: "4 RUs x 128 KiB, flat, one event per grant, over shm rings to BU + 2 writers: " +
			"per-byte copies dominate; aggregator and TCP small-frame path bypassed",
		Kind: "daq", RUs: 4, FragSize: 128 << 10, Range: 1, Shm: true,
		Writers: 2, Pipeline: 4, StoreWindow: 16, RoundEvents: 384, ArenaSize: 16 << 20,
	},
	{
		Name: "rpc-small",
		Why: "64 B request/reply to an echo device over TCP from 2 closed-loop callers: " +
			"framework overhead is the whole cost (paper Fig. 6 / Table 1); daq, storage, sgl bypassed",
		Kind: "rpc", Callers: 2, PayloadSize: 64, Ungated: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
