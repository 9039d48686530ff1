package executive

import (
	"errors"
	"fmt"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/queue"
	"xdaq/internal/tid"
	"xdaq/internal/trace"
)

// dispatchWorker is one dispatch goroutine.  With Dispatchers(1) — the
// default — a single worker draining one frame per scheduler visit IS the
// paper's "loop of control [that] remains in the executive framework",
// byte-identical in ordering.  With N > 1, the scheduler's exclusive
// checkout keeps the I2O discipline intact across workers: a device's
// frames stay FIFO and at most one is in flight, while distinct devices
// dispatch on distinct cores.
func (e *Executive) dispatchWorker() {
	defer e.dispWG.Done()
	max := e.opts.DispatchBatch
	if max <= 0 {
		max = 16
	}
	buf := make([]*i2o.Message, max)
	var epoch uint64
	for {
		// Retire if the configured worker count shrank below the live
		// count.  The check runs before every scheduler visit and
		// PopExclusiveBatch bounces on any epoch change — even one that
		// fired between visits — so a shrink's Interrupt can never be
		// slept through.
		for {
			live := e.dispLive.Load()
			if live <= e.dispWant.Load() {
				break
			}
			if e.dispLive.CompareAndSwap(live, live-1) {
				return
			}
		}
		k := e.batchSize()
		if k > len(buf) {
			k = len(buf)
		}
		n, ok := e.in.PopExclusiveBatch(buf[:k], &epoch)
		if !ok {
			// Closed and drained: this worker is done for good.
			for {
				live := e.dispLive.Load()
				if e.dispLive.CompareAndSwap(live, live-1) {
					return
				}
			}
		}
		if n > 0 {
			e.nBatches.Add(1)
			e.dispBusy.Add(1)
			for i := 0; i < n; i++ {
				m := buf[i]
				buf[i] = nil
				// Capture before dispatch: the frame may be recycled (and
				// its fields scrubbed) by the time dispatch returns.
				tgt := m.Target
				excl := queue.Exclusive(m)
				e.dispatch(m)
				if excl {
					e.in.DeviceDone(tgt)
				}
			}
			e.dispBusy.Add(-1)
		}
	}
}

// dispatch delivers one frame: pending-reply correlation first, then
// address table lookup, then the device upcall, with each stage timed
// into the Table 1 histograms while metrics timing is on.
func (e *Executive) dispatch(m *i2o.Message) {
	// Replies to synchronous requests never reach a handler; the waiting
	// Request call owns them.  (A correlated reply with no waiter here may
	// still target a proxy — a bridge IOP relays it onward below.)
	correlated := m.Flags.Has(i2o.FlagReply) && m.InitiatorContext != 0
	if correlated {
		if e.deliverPending(m.InitiatorContext, m) {
			e.nReplies.Add(1)
			return
		}
	}

	entry, ok := e.table.Lookup(m.Target)
	if !ok {
		e.failAndRelease(m, i2o.FailUnknownTarget, m.Target.String())
		return
	}
	if entry.Kind == tid.Proxy {
		e.traceFrame(trace.Forwarded, m)
		if err := e.forward(entry, m); err != nil {
			e.Logf("forward %v: %v", entry.TID, err)
			e.nFailures.Add(1)
		}
		return
	}

	// A correlated reply for a local device whose waiter already gave up is
	// dropped rather than upcalled: the scheduler dispatched it without
	// checking out its device (see queue.Exclusive), so running a handler
	// here could race the device's in-flight frame.
	if correlated {
		e.nDropped.Add(1)
		m.Recycle()
		return
	}

	e.mu.RLock()
	d := e.devices[m.Target]
	e.mu.RUnlock()
	if d == nil {
		e.failAndRelease(m, i2o.FailUnknownTarget, m.Target.String())
		return
	}
	if !d.Accepts(m) {
		e.failAndRelease(m, i2o.FailDeviceState, d.String())
		return
	}

	if metrics.Enabled() {
		e.dispatchTimed(d, m)
	} else {
		e.dispatchFast(d, m)
	}
}

// dispatchFast is the blackbox-configuration path: no timestamps at all.
func (e *Executive) dispatchFast(d *device.Device, m *i2o.Message) {
	e.traceFrame(trace.Dispatched, m)
	h, ctx, err := d.Lookup(m)
	if err != nil {
		// Uncorrelated late replies fall through to here; they are dropped
		// silently rather than answered, which would loop.
		if m.Flags.Has(i2o.FlagReply) {
			e.nDropped.Add(1)
			m.Recycle()
			return
		}
		e.failAndRelease(m, i2o.FailUnknownFunction, err.Error())
		return
	}
	err = e.invoke(d, h, ctx, m)
	e.nDispatched.Add(1)
	if err != nil {
		e.fail(m, failCodeFor(err), err.Error())
	}
	m.Recycle()
}

// dispatchTimed mirrors dispatchFast with a timer around every stage,
// reproducing the whitebox rows: demultiplexing to functor, upcall of
// functor, application processing, frame release and postprocessing.
func (e *Executive) dispatchTimed(d *device.Device, m *i2o.Message) {
	e.traceFrame(trace.Dispatched, m)
	t0 := time.Now()
	h, ctx, err := d.Lookup(m)
	t1 := time.Now()
	e.hDemux.Observe(t1.Sub(t0))
	if err != nil {
		if m.Flags.Has(i2o.FlagReply) {
			e.nDropped.Add(1)
			m.Recycle()
			return
		}
		e.failAndRelease(m, i2o.FailUnknownFunction, err.Error())
		return
	}
	// The upcall timing covers the invocation machinery itself (recovery
	// frame, watchdog arm) as distinct from the application body, which
	// times itself via the wrapper below.
	var appStart time.Time
	wrapped := func(c *device.Context, msg *i2o.Message) error {
		appStart = time.Now()
		return h(c, msg)
	}
	err = e.invoke(d, wrapped, ctx, m)
	t2 := time.Now()
	if appStart.IsZero() {
		appStart = t2 // handler never entered (watchdog raced)
	}
	e.hUpcall.Observe(appStart.Sub(t1))
	e.hApp.Observe(t2.Sub(appStart))
	e.nDispatched.Add(1)
	if err != nil {
		e.fail(m, failCodeFor(err), err.Error())
	}
	e.Free(m)
	e.hRelease.Since(t2)
	m.Recycle()
}

// invoke runs a handler with panic containment and, when configured, the
// watchdog deadline.  A panicking or overrunning handler faults its device
// so the round-robin loop cannot be monopolized (§4).
//
// The watchdog path borrows a reusable runner goroutine and a pooled timer
// instead of spawning both per frame; the spawn cost is paid only the
// first time (or after a timeout strands a runner on its stuck handler).
func (e *Executive) invoke(d *device.Device, h device.Handler, ctx *device.Context, m *i2o.Message) error {
	if e.opts.Watchdog <= 0 {
		return e.safeCall(d, h, ctx, m)
	}
	r := e.runners.get(e)
	r.in <- wdJob{d: d, h: h, ctx: ctx, m: m}
	t := acquireTimer(e.opts.Watchdog)
	select {
	case err := <-r.done:
		releaseTimer(t)
		e.runners.put(r)
		return err
	case <-t.C:
		releaseTimer(t)
		d.SetState(device.Faulted)
		e.Logf("watchdog: %s exceeded %v handling %v; device faulted", d, e.opts.Watchdog, m)
		// The runner is stuck in the overrunning handler; reap it back to
		// the pool whenever the handler finally returns.
		go func() {
			<-r.done
			e.runners.put(r)
		}()
		return fmt.Errorf("%w: handler exceeded %v", errAborted, e.opts.Watchdog)
	}
}

// errAborted marks watchdog and panic terminations for failCodeFor.
var errAborted = errors.New("aborted")

func (e *Executive) safeCall(d *device.Device, h device.Handler, ctx *device.Context, m *i2o.Message) (err error) {
	defer func() {
		if r := recover(); r != nil {
			d.SetState(device.Faulted)
			e.Logf("panic in %s handling %v: %v; device faulted", d, m, r)
			err = fmt.Errorf("%w: handler panic: %v", errAborted, r)
		}
	}()
	return h(ctx, m)
}

func failCodeFor(err error) i2o.FailCode {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errAborted):
		return i2o.FailAborted
	case errors.Is(err, device.ErrNoHandler):
		return i2o.FailUnknownFunction
	case errors.Is(err, i2o.ErrTruncated), errors.Is(err, i2o.ErrShortBuffer):
		return i2o.FailBadFrame
	case errors.Is(err, ErrPeerDown):
		return i2o.FailPeerDown
	default:
		return i2o.FailApplication
	}
}

// fail sends a failure reply when the initiator expects one.
func (e *Executive) fail(req *i2o.Message, code i2o.FailCode, detail string) {
	e.traceFrame(trace.Failed, req)
	e.nFailures.Add(1)
	if !req.Flags.Has(i2o.FlagReplyExpected) || !req.Initiator.Valid() {
		e.nDropped.Add(1)
		return
	}
	rep := i2o.NewFailReply(req, code, detail)
	if err := e.Send(rep); err != nil {
		e.nDropped.Add(1)
		e.Logf("fail reply to %v undeliverable: %v", req.Initiator, err)
	}
}

// failAndRelease is fail followed by recycling the request frame.
func (e *Executive) failAndRelease(req *i2o.Message, code i2o.FailCode, detail string) {
	e.fail(req, code, detail)
	req.Recycle()
}
