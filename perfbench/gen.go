package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"xdaq"
	"xdaq/internal/i2o"
)

// sample is one open-loop request: when it was due, when it went out,
// when it finished.  Latency is done-due, so a stall also charges the
// requests queued behind it; sent-due is how late the generator ran.
type sample struct {
	due, sent, done int64
	failed          bool
	depth           float64 // scrapes: the member's scheduler queue depth
}

// openLoop issues op at rate per second from one goroutine until stop
// closes.  The schedule's phase and per-request jitter (±25% of the
// period) come from rng, so the same seed gives the same schedule.
func openLoop(rate int, rng *rand.Rand, stop <-chan struct{}, op func(*sample)) []sample {
	period := time.Second / time.Duration(rate)
	next := time.Now().Add(time.Duration(rng.Int63n(int64(period))))
	var out []sample
	for k := 0; ; k++ {
		jitter := time.Duration(rng.Int63n(int64(period)/2)) - period/4
		due := next.Add(jitter)
		next = next.Add(period)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		s := sample{due: due.UnixNano(), sent: time.Now().UnixNano()}
		op(&s)
		s.done = time.Now().UnixNano()
		out = append(out, s)
	}
}

// generators runs the open-loop load that rides along the main load:
// the operator's metrics scrape of the member at PriorityHigh (the
// request `xdaqctl metrics` sends), and, on the DAQ workloads, an echo
// probe on the data path.
type generators struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	ctl   []sample
	probe []sample
}

func startGenerators(r *rig, seed int64, payloads [][]byte) *generators {
	g := &generators{stop: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.ctl = openLoop(ctlRate, rand.New(rand.NewSource(seed^0x5c4a)), g.stop, func(s *sample) {
			params, err := r.ctl.Metrics(memberNode, "")
			if err != nil {
				s.failed = true
				return
			}
			for _, p := range params {
				if p.Key == "exec.queue.depth" {
					s.depth = paramValue(p)
				}
			}
		})
	}()
	if r.w.Kind != "daq" {
		return g
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		buf := make([]byte, probeSize)
		k := 0
		g.probe = openLoop(probeRate, rand.New(rand.NewSource(seed^0x7e1b)), g.stop, func(s *sample) {
			payload := payloads[k%len(payloads)]
			k++
			s.failed = r.echoCall(buf, payload) != nil
		})
	}()
	return g
}

// finish stops the generators and waits for them to return.
func (g *generators) finish() {
	close(g.stop)
	g.wg.Wait()
}

// makePayloads derives the echo payloads from the seed.
func makePayloads(seed int64, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// echoCall round-trips payload through the member's echo device and
// checks the reply.  When tracing, the call is a span whose id rides in
// the payload's first 8 bytes, so the member's handler span names it as
// parent.  buf is scratch of len(payload).
func (r *rig) echoCall(buf, payload []byte) error {
	copy(buf, payload)
	traced := r.rec.on.Load()
	var id uint64
	if traced {
		id = r.rec.nextID()
		binary.LittleEndian.PutUint64(buf, id)
	}
	start := time.Now().UnixNano()
	rep, err := r.cl.Node().Call(r.echo, echoFunc, buf)
	if traced {
		r.rec.add(span{ID: id, Name: spanCall, Start: start, End: time.Now().UnixNano()})
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(rep, buf) {
		return fmt.Errorf("echo returned %d bytes that differ from the %d sent", len(rep), len(buf))
	}
	return nil
}

// rttLadder times n calls and returns the median in µs.
func rttLadder(n int, call func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := call(); err != nil {
			return 0, err
		}
		xs = append(xs, micros(time.Since(t)))
	}
	return quantile(xs, 0.5), nil
}

// ladder measures the round-trip rungs the cross-process call is built
// from: rung 1 a call to a device in the same executive, rung 2 a call
// across the in-process loopback fabric, rung 3 the call to the member.
// Differences between rungs are the cost each layer adds.
func (r *rig) ladder(n int, payload []byte) (local, loop, xproc float64, err error) {
	node := r.cl.Node()
	if local, err = rttLadder(n, func() error {
		_, err := node.Call(r.self, echoFunc, payload)
		return err
	}); err != nil {
		return 0, 0, 0, fmt.Errorf("local rung: %w", err)
	}
	if loop, err = loopbackRTT(n, payload); err != nil {
		return 0, 0, 0, fmt.Errorf("loopback rung: %w", err)
	}
	buf := make([]byte, len(payload))
	if xproc, err = rttLadder(n, func() error { return r.echoCall(buf, payload) }); err != nil {
		return 0, 0, 0, fmt.Errorf("cross-process rung: %w", err)
	}
	return local, loop, xproc, nil
}

// loopbackRTT times calls between two nodes of this process joined by
// the loopback fabric.
func loopbackRTT(n int, payload []byte) (float64, error) {
	quiet := func(string, ...any) {}
	a, err := xdaq.NewNode(xdaq.NodeOptions{Name: "rung-a", Node: 101, Logf: quiet})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := xdaq.NewNode(xdaq.NodeOptions{Name: "rung-b", Node: 102, Logf: quiet})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	if err := xdaq.Connect(xdaq.Loopback(), xdaq.Nodes(a, b)); err != nil {
		return 0, err
	}
	echo := xdaq.NewDevice(echoClass, 0)
	echo.Bind(echoFunc, func(ctx *xdaq.Context, m *xdaq.Message) error {
		return xdaq.ReplyIfExpected(ctx, m, m.Payload)
	})
	if _, err := b.Plug(echo); err != nil {
		return 0, err
	}
	target, err := a.Discover(i2o.NodeID(102), echoClass, 0)
	if err != nil {
		return 0, err
	}
	return rttLadder(n, func() error {
		_, err := a.Call(target, echoFunc, payload)
		return err
	})
}

// memcpyGBs is the calibration row: this host's copy bandwidth, so
// results from different hosts can be normalised.
func memcpyGBs() float64 {
	const size = 32 << 20
	src := make([]byte, size)
	dst := make([]byte, size)
	var xs []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		copy(dst, src)
		xs = append(xs, size/time.Since(t).Seconds()/1e9)
	}
	return quantile(xs, 0.5)
}
