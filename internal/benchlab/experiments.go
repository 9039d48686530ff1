package benchlab

import (
	"fmt"
	"sync"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"

	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/orb"
	"xdaq/internal/pta"
	"xdaq/internal/transport/gm"
)

// Fig6Result carries the three series of figure 6.
type Fig6Result struct {
	XDAQ                            []Point // XDAQ over GM, one-way
	Direct                          []Point // GM used directly, one-way
	Overhead                        []Point // difference: the framework software overhead
	FitXDAQ, FitDirect, FitOverhead Fit
}

// RunFig6 sweeps the figure-6 payload sizes with iters calls per point.
func RunFig6(iters int, allocator string) (*Fig6Result, error) {
	rig, err := NewGMRig(RigConfig{Allocator: allocator})
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	direct, err := NewGMDirect()
	if err != nil {
		return nil, err
	}
	defer direct.Close()

	res := &Fig6Result{}
	for _, size := range Fig6Payloads {
		x, err := rig.MeasureXDAQ(size, iters)
		if err != nil {
			return nil, fmt.Errorf("xdaq at %d bytes: %w", size, err)
		}
		g, err := direct.Measure(size, iters)
		if err != nil {
			return nil, fmt.Errorf("gm at %d bytes: %w", size, err)
		}
		res.XDAQ = append(res.XDAQ, Point{Bytes: size, OneWay: x})
		res.Direct = append(res.Direct, Point{Bytes: size, OneWay: g})
		res.Overhead = append(res.Overhead, Point{Bytes: size, OneWay: x - g})
	}
	res.FitXDAQ = FitSeries(res.XDAQ)
	res.FitDirect = FitSeries(res.Direct)
	res.FitOverhead = FitSeries(res.Overhead)
	return res, nil
}

// WhiteboxRow is one Table 1 row: the activity's histogram summed over
// both nodes of the rig.
type WhiteboxRow struct {
	Activity string
	Paper    float64 // µs, the paper's median on the 400 MHz testbed
	Hist     metrics.HistogramSnapshot
}

// Table1Paper lists the medians reported in Table 1 of the paper.
var Table1Paper = map[string]float64{
	gm.ProcessingMetric: 2.92,
	"exec.demux":        0.22,
	"exec.upcall":       0.47,
	"exec.app":          3.6,
	"exec.release":      2.49,
	"pool.frameAlloc":   2.18,
	"pool.frameFree":    1.78,
}

// table1Order fixes the report row order to match the paper.
var table1Order = []string{
	gm.ProcessingMetric, "exec.demux", "exec.upcall", "exec.app", "exec.release",
	"pool.frameAlloc", "pool.frameFree",
}

// RunTable1 reproduces the whitebox measurement: metrics timing enabled,
// iters echo calls of the given payload, one histogram per activity.
func RunTable1(iters, payload int, allocator string) ([]WhiteboxRow, error) {
	rig, err := NewGMRig(RigConfig{Allocator: allocator})
	if err != nil {
		return nil, err
	}
	defer rig.Close()

	// Warm with timing off, so the fresh rig's histograms hold only the
	// measured calls.
	for i := 0; i < 64; i++ {
		if err := rig.RoundTrip(rig.Echo, payload); err != nil {
			return nil, err
		}
	}
	metrics.Enable(true)
	defer metrics.Enable(false)
	for i := 0; i < iters; i++ {
		if err := rig.RoundTrip(rig.Echo, payload); err != nil {
			return nil, err
		}
	}
	metrics.Enable(false)

	rows := make([]WhiteboxRow, 0, len(table1Order))
	for _, name := range table1Order {
		rows = append(rows, WhiteboxRow{Activity: name, Paper: Table1Paper[name], Hist: rig.Timing(name)})
	}
	return rows, nil
}

// AllocResult compares the two buffer pool schemes (§5: 8.9 µs with the
// original allocator, 4.9 µs after the table-based optimization).
type AllocResult struct {
	Allocator string
	OneWay    time.Duration // XDAQ one-way latency
	Overhead  time.Duration // minus the direct-GM baseline
}

// RunAllocAblation measures the framework overhead under both allocators
// at the given payload size.
func RunAllocAblation(iters, payload int) ([]AllocResult, error) {
	direct, err := NewGMDirect()
	if err != nil {
		return nil, err
	}
	base, err := direct.Measure(payload, iters)
	direct.Close()
	if err != nil {
		return nil, err
	}
	var out []AllocResult
	for _, alloc := range []string{"fixed", "table"} {
		rig, err := NewGMRig(RigConfig{Allocator: alloc})
		if err != nil {
			return nil, err
		}
		lat, err := rig.MeasureXDAQ(payload, iters)
		rig.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, AllocResult{Allocator: alloc, OneWay: lat, Overhead: lat - base})
	}
	return out, nil
}

// RunORB measures the CORBA-like broker over the same GM fabric (§6.2).
func RunORB(iters, payload int) (time.Duration, error) {
	fabric := gm.NewFabric()
	na, err := fabric.Open(1)
	if err != nil {
		return 0, err
	}
	nb, err := fabric.Open(2)
	if err != nil {
		return 0, err
	}
	wa, err := orb.NewGMWire(na, 2, 32)
	if err != nil {
		return 0, err
	}
	wb, err := orb.NewGMWire(nb, 1, 32)
	if err != nil {
		return 0, err
	}
	client := orb.NewEndpoint(wa)
	server := orb.NewEndpoint(wb)
	defer client.Close()
	defer server.Close()
	servant := orb.NewServant()
	servant.Register("echo", func(args []any) ([]any, error) { return args, nil })
	server.Bind("bench", servant)

	ref := client.Object("bench")
	data := make([]byte, payload)
	call := func() error {
		out, err := ref.Invoke("echo", data)
		if err != nil {
			return err
		}
		if b, ok := out[0].([]byte); !ok || len(b) != payload {
			return fmt.Errorf("benchlab: orb echo mismatch")
		}
		return nil
	}
	for i := 0; i < 32; i++ {
		if err := call(); err != nil {
			return 0, err
		}
	}
	samples := make([]time.Duration, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := call(); err != nil {
			return 0, err
		}
		samples[i] = time.Since(t0)
	}
	return median(samples) / 2, nil
}

// slowPT is a deliberately expensive polling transport: its Poll scan
// costs `cost` of CPU time and never yields data — the "slow PT, e.g. a
// poll operation on a TCP socket" whose presence in the polling set
// negates the benefits of a lightweight interface (§4).
type slowPT struct {
	name string
	cost time.Duration
}

func (s *slowPT) Name() string                        { return s.name }
func (s *slowPT) Send(i2o.NodeID, *i2o.Message) error { return fmt.Errorf("slowPT: send unsupported") }
func (s *slowPT) Start(pta.Deliver) error             { return nil }
func (s *slowPT) Stop() error                         { return nil }
func (s *slowPT) Poll(pta.Deliver, int) int {
	deadline := time.Now().Add(s.cost)
	for time.Now().Before(deadline) {
	}
	return 0
}

// NewSlowPT returns a polling-mode transport whose every scan costs the
// given CPU time and never yields data, for the polling-vs-task ablation.
func NewSlowPT(name string, cost time.Duration) pta.PeerTransport {
	return &slowPT{name: name, cost: cost}
}

// PollingResult is one polling-vs-task configuration measurement.
type PollingResult struct {
	Config string
	OneWay time.Duration
}

// RunPollingVsTask measures echo latency in three configurations: GM PT
// in task mode, GM PT polling alone, and GM PT polling next to a slow
// polling PT (the configuration the paper warns about).
func RunPollingVsTask(iters, payload int, slowCost time.Duration) ([]PollingResult, error) {
	var out []PollingResult
	run := func(label string, mode pta.Mode, slow bool) error {
		rig, err := NewGMRig(RigConfig{Mode: mode})
		if err != nil {
			return err
		}
		defer rig.Close()
		if slow {
			if err := rig.AgentA.Register(&slowPT{name: "pt.slow", cost: slowCost}, pta.Polling); err != nil {
				return err
			}
			if err := rig.AgentB.Register(&slowPT{name: "pt.slow", cost: slowCost}, pta.Polling); err != nil {
				return err
			}
		}
		lat, err := rig.MeasureXDAQ(payload, iters)
		if err != nil {
			return err
		}
		out = append(out, PollingResult{Config: label, OneWay: lat})
		return nil
	}
	if err := run("task mode", pta.Task, false); err != nil {
		return nil, err
	}
	if err := run("polling, GM alone", pta.Polling, false); err != nil {
		return nil, err
	}
	if err := run("polling, GM + slow PT", pta.Polling, true); err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelResult is one transport-parallelism measurement.
type ParallelResult struct {
	Transports int
	Throughput float64 // round trips per second, aggregate
}

// RunParallelTransports measures aggregate echo throughput with the
// traffic of several concurrent requesters split across one or two GM
// transports between the same pair of executives — §4's "we can use
// multiple transports to send and receive in parallel".
func RunParallelTransports(duration time.Duration, payload, streams int) ([]ParallelResult, error) {
	var out []ParallelResult
	for _, transports := range []int{1, 2} {
		tput, err := runParallel(duration, payload, streams, transports)
		if err != nil {
			return nil, err
		}
		out = append(out, ParallelResult{Transports: transports, Throughput: tput})
	}
	return out, nil
}

// RunParallelTransportsN measures a single transport-count configuration
// and returns its aggregate round-trip throughput per second.
func RunParallelTransportsN(duration time.Duration, payload, streams, transports int) (float64, error) {
	return runParallel(duration, payload, streams, transports)
}

// parallelBandwidth slows the modelled links so that wire serialization,
// not host CPU, is the binding constraint — the regime where a second
// transport pays off (and the regime the paper's gigabit-era hardware
// lived in).
const parallelBandwidth = 20e6

func runParallel(duration time.Duration, payload, streams, transports int) (float64, error) {
	rig, err := NewGMRig(RigConfig{Bandwidth: parallelBandwidth})
	if err != nil {
		return 0, err
	}
	defer rig.Close()

	targets := make([]i2o.TID, streams)
	for i := range targets {
		targets[i] = rig.Echo
	}
	if transports > 1 {
		// A second fabric between the same executives, registered as a
		// distinct route; half the streams get proxies over it.
		fabric2 := gm.NewFabric()
		fabric2.SetBandwidth(parallelBandwidth)
		routes := map[i2o.NodeID]gm.Port{1: 1, 2: 2}
		nicA, err := fabric2.Open(1)
		if err != nil {
			return 0, err
		}
		nicB, err := fabric2.Open(2)
		if err != nil {
			return 0, err
		}
		trA, err := gm.NewTransport(nicA, rig.A.Allocator(), gm.Config{Name: "pt.gm2", Routes: routes})
		if err != nil {
			return 0, err
		}
		trB, err := gm.NewTransport(nicB, rig.B.Allocator(), gm.Config{Name: "pt.gm2", Routes: routes})
		if err != nil {
			return 0, err
		}
		if err := rig.AgentA.Register(trA, pta.Task); err != nil {
			return 0, err
		}
		if err := rig.AgentB.Register(trB, pta.Task); err != nil {
			return 0, err
		}
		// A second echo instance reachable via the second route.
		echo2 := NewEchoDevice(2)
		tid2, err := rig.B.Plug(echo2)
		if err != nil {
			return 0, err
		}
		entry, err := rig.A.Table().AllocProxy("echo", 2, 2, "pt.gm2", tid2)
		if err != nil {
			return 0, err
		}
		for i := range targets {
			if i%2 == 1 {
				targets[i] = entry.TID
			}
		}
	}

	var wg sync.WaitGroup
	counts := make([]uint64, streams)
	stop := time.Now().Add(duration)
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				if err := rig.RoundTrip(targets[s], payload); err != nil {
					errs <- err
					return
				}
				counts[s]++
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	return float64(total) / duration.Seconds(), nil
}

// PriorityResult is one priority-scheduling measurement.
type PriorityResult struct {
	Priority i2o.Priority
	Latency  time.Duration // gate-open to probe reply
}

// PriorityRig measures the seven-level scheduler deterministically: the
// dispatch loop is parked inside a gate handler while a bulk backlog and
// one probe frame are queued, then the gate opens and the time until the
// probe's reply is measured.  An urgent probe bypasses the backlog (level
// 0 is served first); a bulk probe waits behind every backlog frame.
type PriorityRig struct {
	E            *executive.Executive
	gateTID      i2o.TID
	echoTID      i2o.TID
	collectorTID i2o.TID
	entered      chan struct{}
	release      chan struct{}
	replyAt      chan time.Time
}

// NewPriorityRig builds the single-executive rig.
func NewPriorityRig() (*PriorityRig, error) {
	p := &PriorityRig{
		E: executive.New(executive.Options{
			Name: "prio", Node: 1,
			RequestTimeout: 30 * time.Second,
			Logf:           func(string, ...any) {},
		}),
		entered: make(chan struct{}, 1),
	}
	gate := device.New("gate", 0)
	gate.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		p.entered <- struct{}{}
		<-p.release
		return nil
	})
	var err error
	if p.gateTID, err = p.E.Plug(gate); err != nil {
		p.E.Close()
		return nil, err
	}
	echo := NewEchoDevice(0)
	if p.echoTID, err = p.E.Plug(echo); err != nil {
		p.E.Close()
		return nil, err
	}
	// The collector timestamps the probe's reply on the dispatch
	// goroutine itself, so scheduling of a waiting goroutine cannot
	// distort the measurement.
	p.replyAt = make(chan time.Time, 1)
	collector := device.New("collector", 0)
	collector.Bind(EchoXFunc, func(ctx *device.Context, m *i2o.Message) error {
		p.replyAt <- time.Now()
		return nil
	})
	if p.collectorTID, err = p.E.Plug(collector); err != nil {
		p.E.Close()
		return nil, err
	}
	return p, nil
}

// Close shuts the rig down.
func (p *PriorityRig) Close() { p.E.Close() }

// Probe queues `backlog` bulk frames plus one probe at the given priority
// behind a closed gate, opens the gate, and returns the time until the
// probe's reply arrived.
func (p *PriorityRig) Probe(prio i2o.Priority, backlog int) (time.Duration, error) {
	p.release = make(chan struct{})
	// Park the dispatcher inside the gate handler.
	if err := p.E.Send(&i2o.Message{
		Priority: i2o.PriorityUrgent, Target: p.gateTID, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}); err != nil {
		return 0, err
	}
	<-p.entered

	// Seed the backlog: bulk, no reply expected, all to the echo device.
	for i := 0; i < backlog; i++ {
		if err := p.E.Send(&i2o.Message{
			Priority: i2o.PriorityBulk, Target: p.echoTID, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: EchoXFunc,
		}); err != nil {
			return 0, err
		}
	}

	// The probe: reply-expected, routed back to the collector device,
	// which timestamps arrival inside the dispatch loop.
	if err := p.E.Send(&i2o.Message{
		Flags:    i2o.FlagReplyExpected,
		Priority: prio, Target: p.echoTID, Initiator: p.collectorTID,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: EchoXFunc,
	}); err != nil {
		return 0, err
	}

	start := time.Now()
	close(p.release)
	select {
	case at := <-p.replyAt:
		return at.Sub(start), nil
	case <-time.After(10 * time.Second):
		return 0, fmt.Errorf("benchlab: probe reply never arrived")
	}
}

// RunPriorityDispatch runs iters gated probes per priority with the given
// backlog and returns the average latencies.
func RunPriorityDispatch(iters, backlog int) ([]PriorityResult, error) {
	rig, err := NewPriorityRig()
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	var out []PriorityResult
	for _, prio := range []i2o.Priority{i2o.PriorityUrgent, i2o.PriorityBulk} {
		var total time.Duration
		for i := 0; i < iters; i++ {
			lat, err := rig.Probe(prio, backlog)
			if err != nil {
				return nil, err
			}
			total += lat
		}
		out = append(out, PriorityResult{Priority: prio, Latency: total / time.Duration(iters)})
	}
	return out, nil
}
