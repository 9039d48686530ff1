package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"xdaq"
	"xdaq/internal/daq"
	"xdaq/internal/device"
	"xdaq/internal/metrics"
)

// memberEnv carries the member's configuration; its presence is what
// makes the binary run as the member rather than the driver.
const memberEnv = "PERFBENCH_MEMBER"

// Echo device: the rpc-small target and the DAQ workloads' probe.
const (
	echoClass = "bench.echo"
	echoFunc  = 1
)

type memberConfig struct {
	Workload workload
	Seed     string // the driver's listen address
	Node     uint32
	ShmDir   string
	Traced   bool
}

// command and reply are the driver↔member control protocol: one JSON
// object per line over the member's stdin and stdout, for what the
// executive does not export (process figures, device counters, spans).
// The member's metrics registry itself is read over ExecMetricsGet, as
// an operator would, at round boundaries outside the timed window.  EOF
// on stdin tells the member to exit.
type command struct {
	Op   string // "snap", "trace", "spans"
	On   bool   // trace
	Path string // spans
}

type reply struct {
	Ready    bool     `json:",omitempty"`
	Err      string   `json:",omitempty"`
	Counters counters `json:",omitempty"`
	Dropped  int      `json:",omitempty"`
}

// member is the member process's handle on the devices it hosts.
type member struct {
	evm  *daq.EVM
	aggs []*daq.Aggregator
	rec  *recorder
}

// runMember is the member process's whole life: join the driver's
// cluster, plug the workload's devices, answer control commands until
// stdin closes.
func runMember(raw string) int {
	out := json.NewEncoder(os.Stdout)
	fail := func(err error) int {
		_ = out.Encode(reply{Err: err.Error()}) // the driver may already be gone
		return 1
	}
	var cfg memberConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		return fail(fmt.Errorf("member config: %w", err))
	}
	quiet := func(string, ...any) {}
	cl, err := xdaq.Join(context.Background(), xdaq.ClusterConfig{
		Node:     xdaq.NodeOptions{Name: "member", Node: xdaq.NodeID(cfg.Node), Logf: quiet},
		Seed:     cfg.Seed,
		ShmDir:   cfg.ShmDir,
		NoHealth: true,
	})
	if err != nil {
		return fail(err)
	}
	defer cl.Close()
	cl.Node().Agent.SetRetryPolicy(retry)
	m := &member{rec: newRecorder(idMember)}
	if err := m.plug(cl.Node(), cfg); err != nil {
		return fail(err)
	}
	if err := out.Encode(reply{Ready: true}); err != nil {
		return 1
	}
	dec := json.NewDecoder(os.Stdin)
	for {
		var cmd command
		if err := dec.Decode(&cmd); err != nil {
			return 0 // stdin closed: the driver is done with us
		}
		if err := out.Encode(m.handle(cmd)); err != nil {
			return 1
		}
	}
}

func (m *member) handle(cmd command) reply {
	switch cmd.Op {
	case "snap":
		return reply{Counters: m.counters()}
	case "trace":
		m.rec.on.Store(cmd.On)
		metrics.Enable(cmd.On)
		return reply{}
	case "spans":
		m.rec.mu.Lock()
		spans, dropped := m.rec.spans, m.rec.dropped
		m.rec.mu.Unlock()
		if err := writeSpans(cmd.Path, spans); err != nil {
			return reply{Err: err.Error()}
		}
		return reply{Dropped: dropped}
	}
	return reply{Err: fmt.Sprintf("unknown command %q", cmd.Op)}
}

// counters reports the process figures plus the device counters that
// the executive's metrics registry does not carry.
func (m *member) counters() counters {
	c := selfCounters()
	if m.evm != nil {
		c["evm.built"] = float64(m.evm.Built())
		c["evm.allocated"] = float64(m.evm.Allocated())
		c["evm.duplicates"] = float64(m.evm.Duplicates())
	}
	for _, a := range m.aggs {
		c["agg.failed"] += float64(a.Failed())
	}
	return c
}

// plug installs the workload's member half: the echo device always, and
// for the DAQ workloads the EVM, the readout units and the aggregators.
func (m *member) plug(node *xdaq.Node, cfg memberConfig) error {
	w := cfg.Workload
	echo := xdaq.NewDevice(echoClass, 0)
	echo.Bind(echoFunc, func(ctx *xdaq.Context, msg *xdaq.Message) error {
		return xdaq.ReplyIfExpected(ctx, msg, msg.Payload)
	})
	if _, err := node.Plug(echo); err != nil {
		return err
	}
	type wrapping struct {
		dev    *device.Device
		xfunc  uint16
		name   string
		parent func(*xdaq.Message) uint64
	}
	wraps := []wrapping{{echo, echoFunc, spanEcho, callParent}}

	if w.Kind == "daq" {
		m.evm = daq.NewEVM(0)
		m.evm.SetSharding(daq.DefaultShardSlots, uint32(w.Range))
		if _, err := node.Plug(m.evm.Device()); err != nil {
			return err
		}
		evm := m.evm.Device().TID()
		var rus []*daq.RU
		for _, x := range []uint16{daq.XFuncAllocate, daq.XFuncBuilt, daq.XFuncRegister} {
			wraps = append(wraps, wrapping{m.evm.Device(), x, spanEVM, nil})
		}
		for i := 0; i < w.RUs; i++ {
			ru := daq.NewRU(i, w.FragSize)
			ru.SetEVM(evm)
			if _, err := node.Plug(ru.Device()); err != nil {
				return err
			}
			rus = append(rus, ru)
			wraps = append(wraps, wrapping{ru.Device(), daq.XFuncFragment, spanRU, blockParent})
		}
		for a := 0; a < w.Aggs; a++ {
			per := w.RUs / w.Aggs
			var children []daq.AggChild
			for _, ru := range rus[a*per : (a+1)*per] {
				children = append(children, daq.AggChild{TID: ru.Device().TID()})
			}
			agg := daq.NewAggregator(a)
			agg.Configure(evm, children)
			if _, err := node.Plug(agg.Device()); err != nil {
				return err
			}
			m.aggs = append(m.aggs, agg)
			wraps = append(wraps,
				wrapping{agg.Device(), daq.XFuncSuper, spanAgg, blockParent},
				wrapping{agg.Device(), daq.XFuncFragment, spanAgg, blockParent})
		}
	}
	if !cfg.Traced {
		return nil
	}
	for _, wr := range wraps {
		if err := m.rec.wrap(wr.dev, wr.xfunc, wr.name, wr.parent); err != nil {
			return err
		}
	}
	return nil
}
