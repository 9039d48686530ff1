package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xdaq"
	"xdaq/internal/cluster"
	"xdaq/internal/daq"
	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/storage"
)

const (
	driverNode = 1
	memberNode = 2
)

// rig is one set-up cluster: the driver's node with its half of the
// wiring, the member process with the other half, and the operator's
// controller.
type rig struct {
	w    workload
	dir  string
	cl   *xdaq.Cluster
	mem  *memberProc
	ctl  *cluster.Controller
	echo xdaq.TID // the member's echo device, behind a local proxy
	self xdaq.TID // the driver's own echo device (ladder rung 1)
	rec  *recorder

	bu  *daq.BU
	sws []*storage.SW
}

// setup builds one rig from nothing: join, spawn the member, plug and
// wire both halves, and make one echo round trip.  Every set-up gets a
// fresh directory (shm rings, segments) and fresh ephemeral ports.
func setup(h *hygiene, w workload, dir string, traced bool) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	h.addDir(dir)
	r := &rig{w: w, dir: dir, rec: newRecorder(idDriver)}
	shmDir := ""
	if w.Shm {
		shmDir = filepath.Join(dir, "shm")
	}
	quiet := func(string, ...any) {}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cl, err := xdaq.Join(ctx, xdaq.ClusterConfig{
		Node:     xdaq.NodeOptions{Name: "driver", Node: driverNode, Logf: quiet},
		ShmDir:   shmDir,
		NoHealth: true,
	})
	if err != nil {
		return nil, fmt.Errorf("driver join: %w", err)
	}
	r.cl = cl
	cl.Node().Agent.SetRetryPolicy(retry)
	if r.mem, err = spawnMember(h, memberConfig{
		Workload: w, Seed: cl.Listener().Addr(), Node: memberNode, ShmDir: shmDir, Traced: traced,
	}); err != nil {
		r.close()
		return nil, err
	}
	if err := cl.WaitReady(ctx, 2); err != nil {
		r.close()
		return nil, err
	}
	if err := r.wire(traced); err != nil {
		r.close()
		return nil, err
	}
	probe := make([]byte, probeSize)
	if _, err := cl.Node().Call(r.echo, echoFunc, probe); err != nil {
		r.close()
		return nil, fmt.Errorf("first echo: %w", err)
	}
	return r, nil
}

// wire plugs the driver's devices and connects them to the member's.
func (r *rig) wire(traced bool) error {
	node := r.cl.Node()
	var err error
	if r.ctl, err = cluster.NewPrimary(node.Exec); err != nil {
		return err
	}
	if err := r.ctl.AddNode(memberNode, "member"); err != nil {
		return err
	}
	if r.echo, err = node.Discover(memberNode, echoClass, 0); err != nil {
		return fmt.Errorf("discover echo: %w", err)
	}
	self := xdaq.NewDevice(echoClass, 1)
	self.Bind(echoFunc, func(ctx *xdaq.Context, m *xdaq.Message) error {
		return xdaq.ReplyIfExpected(ctx, m, m.Payload)
	})
	if r.self, err = node.Plug(self); err != nil {
		return err
	}
	if r.w.Kind != "daq" {
		return nil
	}

	evm, err := node.Discover(memberNode, daq.EVMClass, 0)
	if err != nil {
		return fmt.Errorf("discover evm: %w", err)
	}
	for i := 0; i < r.w.Writers; i++ {
		sw := storage.NewSW(i, node.Exec.Allocator())
		if _, err := node.Plug(sw.Device()); err != nil {
			return err
		}
		r.sws = append(r.sws, sw)
	}
	writers := make([]i2o.TID, len(r.sws))
	for i, sw := range r.sws {
		writers[i] = sw.Device().TID()
	}
	r.bu = daq.NewBU(0)
	if _, err := node.Plug(r.bu.Device()); err != nil {
		return err
	}
	if r.w.Aggs > 0 {
		roots := make([]i2o.TID, r.w.Aggs)
		for a := range roots {
			if roots[a], err = node.Discover(memberNode, daq.AggClass, a); err != nil {
				return fmt.Errorf("discover aggregator %d: %w", a, err)
			}
		}
		r.bu.ConfigureTree(evm, roots, r.w.RUs)
	} else {
		rus := make([]i2o.TID, r.w.RUs)
		for i := range rus {
			if rus[i], err = node.Discover(memberNode, daq.RUClass, i); err != nil {
				return fmt.Errorf("discover ru %d: %w", i, err)
			}
		}
		r.bu.Configure(evm, rus)
	}
	r.bu.SetStorage(writers, r.w.StoreWindow)
	if !traced {
		return nil
	}
	for _, x := range []uint16{daq.XFuncFragment, daq.XFuncSuper, daq.XFuncAllocate, daq.XFuncRegister, storage.XFuncWriteAck} {
		parent := blockParent
		if x != daq.XFuncFragment && x != daq.XFuncSuper {
			parent = nil
		}
		if err := r.rec.wrap(r.bu.Device(), x, spanBU, parent); err != nil {
			return err
		}
	}
	for _, sw := range r.sws {
		if err := r.rec.wrap(sw.Device(), storage.XFuncWrite, spanSW, nil); err != nil {
			return err
		}
	}
	return nil
}

// close stops the member and tears the driver's node down.
func (r *rig) close() {
	if r.mem != nil {
		r.mem.stop()
	}
	if r.cl != nil {
		r.cl.Close()
	}
	_ = os.RemoveAll(r.dir) // the hygiene list removes it again on exit if this fails
}

// setTrace turns span recording and metrics timing on or off in both
// processes.
func (r *rig) setTrace(on bool) error {
	r.rec.on.Store(on)
	metrics.Enable(on)
	_, err := r.mem.call(command{Op: "trace", On: on})
	return err
}

// snap reads both processes' counters: their own resource usage, the
// member's device counters, and each executive's metrics registry — the
// member's over ExecMetricsGet, as an operator would.
func (r *rig) snap() (drv, mem counters, err error) {
	drv = selfCounters()
	for _, s := range metrics.Flatten(r.cl.Node().Exec.Metrics().Snapshot()) {
		drv[s.Name] = flatValue(s)
	}
	rep, err := r.mem.call(command{Op: "snap"})
	if err != nil {
		return nil, nil, err
	}
	mem = rep.Counters
	params, err := r.ctl.Metrics(memberNode, "")
	if err != nil {
		return nil, nil, fmt.Errorf("scrape member: %w", err)
	}
	for _, p := range params {
		mem[p.Key] = paramValue(p)
	}
	return drv, mem, nil
}

func flatValue(s metrics.FlatSample) float64 {
	if s.IsUint {
		return float64(s.Uint)
	}
	return float64(s.Int)
}

func paramValue(p i2o.Param) float64 {
	switch v := p.Value.(type) {
	case int64:
		return float64(v)
	case uint64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// sumKeys adds every counter whose name has the given prefix and suffix.
func sumKeys(c counters, prefix, suffix string) float64 {
	var t float64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			t += v
		}
	}
	return t
}

// stuck describes a round that never finished: the builder's counters
// and both sides' frame counts, so a lost frame shows as a sent/received
// mismatch on one route.
func (r *rig) stuck() string {
	out := fmt.Sprintf("builder %+v", r.bu.Stats())
	drv, mem, err := r.snap()
	if err != nil {
		return out + "; snapshot: " + err.Error()
	}
	for _, k := range []string{"pta.pt.shm.sent", "pta.pt.shm.recv", "pta.pt.tcp.sent", "pta.pt.tcp.recv", "pta.errors", "pta.retries", "exec.queue.depth", "pool.fails"} {
		out += fmt.Sprintf("; %s driver %v member %v", k, drv[k], mem[k])
	}
	return out + fmt.Sprintf("; evm allocated %v built %v", mem["evm.allocated"], mem["evm.built"])
}
