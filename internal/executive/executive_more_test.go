package executive

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pool"
	"xdaq/internal/queue"
)

func TestCloseFailsPendingRequests(t *testing.T) {
	e := New(quietOpts("a", 1))
	d := device.New("sink", 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	d.Bind(1, func(*device.Context, *i2o.Message) error {
		close(entered)
		<-release
		return nil
	})
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := e.Request(&i2o.Message{
			Target: id, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		})
		got <- err
	}()
	<-entered
	go func() {
		// Close blocks on the dispatch loop, which is parked in the
		// handler; release it shortly after.
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	e.Close()
	select {
	case err := <-got:
		// Either the closed-pending path or a late normal completion is
		// acceptable; hanging is not.
		_ = err
	case <-time.After(2 * time.Second):
		t.Fatal("request hung across Close")
	}
}

func TestInjectFromWithInvalidInitiator(t *testing.T) {
	// Frames with no initiator (hardware events, notifications) must pass
	// through InjectFrom without a return proxy.
	e := newExec(t, "a", 1)
	seen := make(chan i2o.TID, 1)
	d := device.New("sink", 0)
	d.Bind(1, func(_ *device.Context, m *i2o.Message) error {
		seen <- m.Initiator
		return nil
	})
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectFrom(9, "pt.x", &i2o.Message{
		Target: id, Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case init := <-seen:
		if init != i2o.TIDNone {
			t.Fatalf("initiator rewritten to %v", init)
		}
	case <-time.After(time.Second):
		t.Fatal("frame never dispatched")
	}
	// No @peer proxy should exist.
	for _, entry := range e.Table().Entries() {
		if entry.Class == "@peer:pt.x" {
			t.Fatalf("return proxy created for invalid initiator: %+v", entry)
		}
	}
}

func TestInjectFromCreatesPerRouteProxies(t *testing.T) {
	e := newExec(t, "a", 1)
	for _, route := range []string{"pt.one", "pt.two"} {
		if err := e.InjectFrom(9, route, &i2o.Message{
			Target: i2o.TIDExecutive, Initiator: 0x33, Function: i2o.UtilNOP,
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for {
		_, ok1 := e.Table().Resolve("@peer:pt.one", 0x33, 9)
		_, ok2 := e.Table().Resolve("@peer:pt.two", 0x33, 9)
		if ok1 && ok2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("per-route proxies missing: %v %v", ok1, ok2)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAllocMessageOversize(t *testing.T) {
	e := newExec(t, "a", 1)
	if _, err := e.AllocMessage(pool.MaxBlock + 1); !errors.Is(err, pool.ErrTooLarge) {
		t.Fatalf("oversize: %v", err)
	}
}

func TestBoundedQueueRejectsWhenFull(t *testing.T) {
	opts := quietOpts("a", 1)
	opts.QueueCapacity = 2
	e := New(opts)
	defer e.Close()
	gate := make(chan struct{})
	d := device.New("gate", 0)
	d.Bind(1, func(*device.Context, *i2o.Message) error {
		<-gate
		return nil
	})
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	defer close(gate)
	// One frame occupies the handler; two fill the queue; more must fail.
	sent := 0
	var lastErr error
	for i := 0; i < 10; i++ {
		lastErr = e.Send(&i2o.Message{
			Target: id, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		})
		if lastErr != nil {
			break
		}
		sent++
	}
	if lastErr == nil {
		t.Fatal("bounded queue never filled")
	}
	if !errors.Is(lastErr, pool.ErrExhausted) {
		t.Fatalf("overflow error: %v", lastErr)
	}
	if sent < 2 || sent > 3 {
		t.Fatalf("accepted %d frames into a 2-deep queue", sent)
	}
}

func TestTimerSetMessageValidation(t *testing.T) {
	e := newExec(t, "a", 1)
	for _, params := range [][]i2o.Param{
		{},                                    // no after_us
		{{Key: "after_us", Value: int64(-5)}}, // negative
		{{Key: "after_us", Value: int64(1000)}, {Key: "target", Value: int64(0)}}, // bad target
	} {
		payload, err := i2o.EncodeParams(params)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Request(&i2o.Message{
			Target: i2o.TIDExecutive, Initiator: i2o.TIDExecutive,
			Function: i2o.ExecTimerSet, Payload: payload,
		}); err == nil {
			t.Errorf("timer set with %v accepted", params)
		}
	}
}

func TestTimerSetExplicitTargetAndPayload(t *testing.T) {
	e := newExec(t, "a", 1)
	hit := make(chan []byte, 1)
	d := device.New("sink", 0)
	d.Bind(XFuncTimerExpired, func(_ *device.Context, m *i2o.Message) error {
		hit <- append([]byte(nil), m.Payload...)
		return nil
	})
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := i2o.EncodeParams([]i2o.Param{
		{Key: "after_us", Value: int64(5000)},
		{Key: "target", Value: int64(id)},
		{Key: "payload", Value: []byte("beep")},
	})
	rep, err := e.Request(&i2o.Message{
		Target: i2o.TIDExecutive, Initiator: i2o.TIDExecutive,
		Function: i2o.ExecTimerSet, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
	select {
	case p := <-hit:
		if string(p) != "beep" {
			t.Fatalf("timer payload %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer with explicit target never fired")
	}
}

func TestTimerCancelValidation(t *testing.T) {
	e := newExec(t, "a", 1)
	payload, _ := i2o.EncodeParams(nil)
	if _, err := e.Request(&i2o.Message{
		Target: i2o.TIDExecutive, Initiator: i2o.TIDExecutive,
		Function: i2o.ExecTimerCancel, Payload: payload,
	}); err == nil {
		t.Fatal("cancel without id accepted")
	}
	// Cancelling an unknown id reports stopped=false but succeeds.
	payload, _ = i2o.EncodeParams([]i2o.Param{{Key: "timer", Value: int64(9999)}})
	rep, err := e.Request(&i2o.Message{
		Target: i2o.TIDExecutive, Initiator: i2o.TIDExecutive,
		Function: i2o.ExecTimerCancel, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	params, _ := i2o.DecodeParams(rep.Payload)
	if len(params) != 1 || params[0].Value != false {
		t.Fatalf("cancel unknown: %v", params)
	}
}

func TestLateReplyIsDroppedSilently(t *testing.T) {
	e := newExec(t, "a", 1)
	// A reply frame whose context matches no pending request and whose
	// target has no handler for the code must be dropped, not answered.
	before := e.Stats().Dropped
	m := &i2o.Message{
		Flags: i2o.FlagReply, Target: i2o.TIDExecutive, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 0x999 & 0xFFFF,
		InitiatorContext: 123456,
	}
	if err := e.Inject(m); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for e.Stats().Dropped == before {
		if time.Now().After(deadline) {
			t.Fatal("late reply not dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProbedDispatchFailurePaths(t *testing.T) {
	e := New(quietOpts("probed", 1))
	defer e.Close()
	metrics.Enable(true)
	defer metrics.Enable(false)
	// Unknown function with timing on: fail reply produced via the timed
	// path.
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Request(&i2o.Message{
		Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 0x42,
	})
	var rec *i2o.FailRecord
	if !errors.As(err, &rec) || rec.Code != i2o.FailUnknownFunction {
		t.Fatalf("err %v", err)
	}
	// The failed lookup is still timed as demultiplexing.
	if e.Metrics().Histogram("exec.demux").Snapshot().Count == 0 {
		t.Fatal("exec.demux collected nothing on the failure path")
	}
}

func TestDeviceChangeEvents(t *testing.T) {
	e := newExec(t, "a", 1)
	events := make(chan []i2o.Param, 4)
	watcher := device.New("watcher", 0)
	watcher.Bind(XFuncDeviceChange, func(_ *device.Context, m *i2o.Message) error {
		params, err := i2o.DecodeParams(m.Payload)
		if err != nil {
			return err
		}
		events <- params
		return nil
	})
	watcherTID, err := e.Plug(watcher)
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe the watcher to executive events.
	rep, err := e.Request(&i2o.Message{
		Target: i2o.TIDExecutive, Initiator: watcherTID,
		Function: i2o.UtilEventRegister,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()

	id, err := e.Plug(echoDevice(5))
	if err != nil {
		t.Fatal(err)
	}
	expect := func(action string) {
		t.Helper()
		select {
		case params := <-events:
			got := map[string]any{}
			for _, p := range params {
				got[p.Key] = p.Value
			}
			if got["action"] != action || got["class"] != "echo" || got["tid"] != int64(id) {
				t.Fatalf("event %v, want action=%s", got, action)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no %s event", action)
		}
	}
	expect("plug")
	if err := e.Unplug(id); err != nil {
		t.Fatal(err)
	}
	expect("unplug")
}

func TestConcurrentRequests(t *testing.T) {
	e := newExec(t, "a", 1)
	id, err := e.Plug(echoDevice(0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				payload := []byte{byte(g), byte(i)}
				rep, err := e.Request(&i2o.Message{
					Target: id, Initiator: i2o.TIDExecutive,
					Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
					Payload: payload,
				})
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if rep.Payload[0] != byte(g) || rep.Payload[1] != byte(i) {
					t.Errorf("g%d i%d: cross-talk %v", g, i, rep.Payload)
					rep.Release()
					return
				}
				rep.Release()
			}
		}(g)
	}
	wg.Wait()
}

func TestQueueCapacityZeroMeansUnbounded(t *testing.T) {
	s := queue.NewSched(0)
	for i := 0; i < 10_000; i++ {
		if err := s.Push(&i2o.Message{Target: 1, Priority: 0}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if s.Len() != 10_000 {
		t.Fatalf("len %d", s.Len())
	}
}
