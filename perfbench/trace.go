package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"xdaq/internal/daq"
	"xdaq/internal/device"
	"xdaq/internal/i2o"
)

// Span names, one per layer boundary the benchmark wraps.
const (
	spanRU    = "daq.ru"
	spanAgg   = "daq.agg"
	spanBU    = "daq.bu"
	spanEVM   = "daq.evm"
	spanSW    = "storage.sw"
	spanEcho  = "rpc.handler"
	spanCall  = "rpc.call"
	spanBlock = "daq.block"
)

// Span id spaces: the top byte says who made the id.  Block ids are
// derived from the block's first event, so handler spans in both
// processes name the same parent without exchanging anything.
const (
	idDriver = 1 << 56
	idMember = 2 << 56
	idBlock  = 3 << 56
)

// maxSpans caps each process's in-memory trace (48 B a span, so about
// 200 MB at most); later spans are counted as dropped rather than grown
// without bound.  A 40 s daq-tree run's traced half records about 1.8M
// spans in the member on a 2-core host, so the cap leaves room for a
// host more than twice as fast.
const maxSpans = 1 << 22

// span is one timed interval at a layer boundary, in wall-clock
// nanoseconds so the two processes' spans share one time base.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent uint64 `json:"parent"`
}

// recorder holds one process's spans in memory until the run ends.
// Recording is off until enabled, so an untraced window in a traced run
// pays one atomic load per wrapped call.
type recorder struct {
	on      atomic.Bool
	base    uint64
	seq     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder(base uint64) *recorder { return &recorder{base: base} }

func (r *recorder) nextID() uint64 { return r.base | r.seq.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// wrap re-binds a plugged device's handler for xfunc so each call is
// recorded as a span.  parent, if set, reads the causing span's id from
// the frame before the handler runs (the frame is recycled after).
func (r *recorder) wrap(d *device.Device, xfunc uint16, name string, parent func(*i2o.Message) uint64) error {
	h, _, err := d.Lookup(&i2o.Message{Function: i2o.FuncPrivate, Org: d.Org(), XFunction: xfunc})
	if err != nil {
		return fmt.Errorf("wrap %s: %w", d.Class(), err)
	}
	d.Bind(xfunc, func(ctx *device.Context, m *i2o.Message) error {
		if !r.on.Load() {
			return h(ctx, m)
		}
		var p uint64
		if parent != nil {
			p = parent(m)
		}
		start := time.Now().UnixNano()
		err := h(ctx, m)
		r.add(span{ID: r.nextID(), Name: name, Start: start, End: time.Now().UnixNano(), Parent: p})
		return err
	})
	return nil
}

// blockParent names the event block a fragment request or reply belongs
// to: requests carry a FragReq, replies a FragRep, both keyed by the
// block's first event.
func blockParent(m *i2o.Message) uint64 {
	if m.Flags.Has(i2o.FlagReply) {
		if rep, err := daq.DecodeFragRep(m.Payload); err == nil {
			return idBlock | rep.First
		}
		return 0
	}
	if req, err := daq.DecodeFragReq(m.Payload); err == nil {
		return idBlock | req.First
	}
	return 0
}

// callParent reads the caller's span id, which a traced caller stamps
// into the first 8 bytes of the echo payload.
func callParent(m *i2o.Message) uint64 {
	if len(m.Payload) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(m.Payload)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a JSON-lines span file.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// spanStats summarizes merged spans: per-name durations and busy time,
// plus block latencies — first readout-unit span of a block to the
// builder-unit span that completed it — added to the trace as
// synthesized daq.block spans.
type spanStats struct {
	dur    map[string][]float64 // µs
	busy   map[string]float64   // µs
	blocks []float64            // µs
}

func analyzeSpans(spans []span) (spanStats, []span) {
	st := spanStats{dur: map[string][]float64{}, busy: map[string]float64{}}
	type window struct{ start, end int64 }
	blocks := map[uint64]*window{}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		st.dur[s.Name] = append(st.dur[s.Name], d)
		st.busy[s.Name] += d
		if s.Parent>>56 != idBlock>>56 || (s.Name != spanRU && s.Name != spanBU) {
			continue
		}
		w := blocks[s.Parent]
		if w == nil {
			w = &window{}
			blocks[s.Parent] = w
		}
		if s.Name == spanRU && (w.start == 0 || s.Start < w.start) {
			w.start = s.Start
		}
		if s.Name == spanBU && s.End > w.end {
			w.end = s.End
		}
	}
	for id, w := range blocks {
		if w.start == 0 || w.end <= w.start {
			continue
		}
		st.blocks = append(st.blocks, float64(w.end-w.start)/1e3)
		spans = append(spans, span{ID: id, Name: spanBlock, Start: w.start, End: w.end})
	}
	return st, spans
}
