// Package benchlab builds the measurement rigs for reproducing the
// paper's evaluation (§5): the blackbox ping-pong of figure 6, the
// whitebox breakdown of Table 1, the allocator ablation, and the
// comparisons and design ablations indexed in DESIGN.md.  Both the
// testing.B benchmarks in the repository root and the cmd/benchtab
// report generator drive these rigs.
package benchlab

import (
	"fmt"
	"sort"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pool"
	"xdaq/internal/pta"
	"xdaq/internal/transport/gm"
)

// EchoXFunc is the private function code of the benchmark echo device.
const EchoXFunc uint16 = 1

// Fig6Payloads are the payload sizes swept in figure 6 (1 B to 4096 B).
var Fig6Payloads = []int{1, 64, 256, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096}

// NewEchoDevice returns the paper's benchmark responder: it replies to
// each received message with exactly the same content, zero-copy (the
// reply payload is a fresh pool block so it can cross the wire while the
// request frame is released).
func NewEchoDevice(instance int) *device.Device {
	d := device.New("echo", instance)
	d.Bind(EchoXFunc, func(ctx *device.Context, m *i2o.Message) error {
		if !m.Flags.Has(i2o.FlagReplyExpected) {
			return nil
		}
		buf, err := ctx.Host.Alloc(len(m.Payload))
		if err != nil {
			return err
		}
		copy(buf.Bytes(), m.Payload)
		rep := i2o.NewReply(m)
		rep.Payload = buf.Bytes()
		rep.AttachBuffer(buf)
		return ctx.Host.Send(rep)
	})
	return d
}

// RigConfig configures a two-node XDAQ-over-GM rig.
type RigConfig struct {
	// Allocator is "table" (default) or "fixed" — the §5 ablation knob.
	Allocator string

	// Mode is the PT operation mode (task by default).
	Mode pta.Mode

	// Provide is the receive-block count per PT (default 32).
	Provide int

	// Bandwidth overrides the modelled link speed in bytes per second
	// (gm.DefaultBandwidth when 0).
	Bandwidth float64
}

// Rig is two executives joined by the simulated Myrinet fabric, with an
// echo device on node B and a proxy for it on node A.
type Rig struct {
	A, B      *executive.Executive
	AgentA    *pta.Agent
	AgentB    *pta.Agent
	Echo      i2o.TID // proxy TiD on A for the echo device on B
	LocalEcho i2o.TID // echo device plugged on A, for loop-local runs
}

func newAllocator(name string) (pool.Allocator, error) {
	switch name {
	case "", "table":
		return pool.NewTable(0), nil
	case "fixed":
		return pool.NewFixed(pool.DefaultFixedClasses())
	default:
		return nil, fmt.Errorf("benchlab: unknown allocator %q", name)
	}
}

// Timing returns the named timing histogram summed over both nodes of
// the rig, transports included.
func (r *Rig) Timing(name string) metrics.HistogramSnapshot {
	var h metrics.HistogramSnapshot
	for _, e := range []*executive.Executive{r.A, r.B} {
		h.Add(e.Metrics().Histogram(name).Snapshot())
	}
	return h
}

// NewGMRig builds the figure-6 rig.
func NewGMRig(cfg RigConfig) (*Rig, error) {
	fabric := gm.NewFabric()
	if cfg.Bandwidth > 0 {
		fabric.SetBandwidth(cfg.Bandwidth)
	}
	routes := map[i2o.NodeID]gm.Port{1: 1, 2: 2}

	build := func(id i2o.NodeID, name string) (*executive.Executive, *pta.Agent, error) {
		alloc, err := newAllocator(cfg.Allocator)
		if err != nil {
			return nil, nil, err
		}
		e := executive.New(executive.Options{
			Name: name, Node: id,
			Allocator:      alloc,
			RequestTimeout: 10 * time.Second,
			Logf:           func(string, ...any) {},
		})
		nic, err := fabric.Open(routes[id])
		if err != nil {
			e.Close()
			return nil, nil, err
		}
		tr, err := gm.NewTransport(nic, e.Allocator(), gm.Config{
			Routes: routes, Provide: cfg.Provide, Metrics: e.Metrics(),
		})
		if err != nil {
			e.Close()
			return nil, nil, err
		}
		agent, err := pta.New(e)
		if err != nil {
			e.Close()
			return nil, nil, err
		}
		if err := agent.Register(tr, cfg.Mode); err != nil {
			agent.Close()
			e.Close()
			return nil, nil, err
		}
		e.SetRoute(1, gm.PTName)
		e.SetRoute(2, gm.PTName)
		return e, agent, nil
	}

	a, agentA, err := build(1, "bench-a")
	if err != nil {
		return nil, err
	}
	b, agentB, err := build(2, "bench-b")
	if err != nil {
		agentA.Close()
		a.Close()
		return nil, err
	}
	r := &Rig{A: a, B: b, AgentA: agentA, AgentB: agentB}

	if _, err := b.Plug(NewEchoDevice(0)); err != nil {
		r.Close()
		return nil, err
	}
	localEcho, err := a.Plug(NewEchoDevice(1))
	if err != nil {
		r.Close()
		return nil, err
	}
	r.LocalEcho = localEcho
	echo, err := a.Discover(2, "echo", 0)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.Echo = echo
	return r, nil
}

// Close shuts the rig down.
func (r *Rig) Close() {
	r.AgentA.Close()
	r.AgentB.Close()
	r.A.Close()
	r.B.Close()
}

// RoundTrip performs one echo request of the given payload size through
// the full framework path and releases the reply.
func (r *Rig) RoundTrip(target i2o.TID, size int) error {
	m, err := r.A.AllocMessage(size)
	if err != nil {
		return err
	}
	m.Target = target
	m.Initiator = i2o.TIDExecutive
	m.XFunction = EchoXFunc
	rep, err := r.A.Request(m)
	if err != nil {
		return err
	}
	if len(rep.Payload) != size {
		rep.Release()
		return fmt.Errorf("benchlab: echo returned %d bytes, want %d", len(rep.Payload), size)
	}
	rep.Release()
	return nil
}

// MeasureXDAQ runs iters round trips of the given payload size and
// returns the median one-way latency (round trip / 2).  Medians keep
// garbage-collection and scheduler outliers from skewing the series, in
// the spirit of the paper's median-based whitebox methodology.
func (r *Rig) MeasureXDAQ(size, iters int) (time.Duration, error) {
	// Warm the path (route discovery, pool growth).
	for i := 0; i < 32; i++ {
		if err := r.RoundTrip(r.Echo, size); err != nil {
			return 0, err
		}
	}
	samples := make([]time.Duration, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := r.RoundTrip(r.Echo, size); err != nil {
			return 0, err
		}
		samples[i] = time.Since(t0)
	}
	return median(samples) / 2, nil
}

// median sorts in place and returns the midpoint.
func median(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	n := len(samples)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// GMDirect is the baseline of figure 6: the same fabric used directly,
// with no framework in the path.  Node B's goroutine echoes every message
// back and re-provides its receive buffer, as a raw GM test program
// would.
type GMDirect struct {
	a, b *gm.NIC
	done chan struct{}
}

// NewGMDirect builds the direct rig.
func NewGMDirect() (*GMDirect, error) {
	fabric := gm.NewFabric()
	a, err := fabric.Open(1)
	if err != nil {
		return nil, err
	}
	b, err := fabric.Open(2)
	if err != nil {
		a.Close()
		return nil, err
	}
	for i := 0; i < 32; i++ {
		if err := a.Provide(make([]byte, gm.MTU), nil); err != nil {
			return nil, err
		}
		if err := b.Provide(make([]byte, gm.MTU), nil); err != nil {
			return nil, err
		}
	}
	d := &GMDirect{a: a, b: b, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		for {
			r, ok := b.Receive()
			if !ok {
				return
			}
			if err := b.Send(1, r.Buf[:r.N]); err != nil {
				return
			}
			_ = b.Provide(r.Buf, nil)
		}
	}()
	return d, nil
}

// RoundTrip sends one payload and waits for the echo.
func (d *GMDirect) RoundTrip(payload []byte) error {
	if err := d.a.Send(2, payload); err != nil {
		return err
	}
	r, ok := d.a.Receive()
	if !ok {
		return fmt.Errorf("benchlab: direct GM receive failed")
	}
	if r.N != len(payload) {
		return fmt.Errorf("benchlab: direct echo %d bytes, want %d", r.N, len(payload))
	}
	return d.a.Provide(r.Buf, nil)
}

// Measure runs iters round trips and returns the median one-way latency.
func (d *GMDirect) Measure(size, iters int) (time.Duration, error) {
	payload := make([]byte, size)
	for i := 0; i < 32; i++ {
		if err := d.RoundTrip(payload); err != nil {
			return 0, err
		}
	}
	samples := make([]time.Duration, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := d.RoundTrip(payload); err != nil {
			return 0, err
		}
		samples[i] = time.Since(t0)
	}
	return median(samples) / 2, nil
}

// Close shuts the direct rig down.
func (d *GMDirect) Close() {
	d.a.Close()
	d.b.Close()
	<-d.done
}

// Point is one (payload size, one-way latency) sample of a latency series.
type Point struct {
	Bytes  int
	OneWay time.Duration
}

// Fit computes the least-squares line latency = Slope*bytes + Intercept
// over a series, in microseconds, mirroring the linear fits of figure 6.
type Fit struct {
	Slope     float64 // µs per byte
	Intercept float64 // µs
}

// FitSeries fits a line through the points.
func FitSeries(points []Point) Fit {
	n := float64(len(points))
	if n == 0 {
		return Fit{}
	}
	var sx, sy, sxx, sxy float64
	for _, p := range points {
		x := float64(p.Bytes)
		y := float64(p.OneWay) / float64(time.Microsecond)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{Intercept: sy / n}
	}
	slope := (n*sxy - sx*sy) / den
	return Fit{Slope: slope, Intercept: (sy - slope*sx) / n}
}
