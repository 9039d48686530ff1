package e2e_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xdaq"
	"xdaq/internal/cluster"
	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
)

// paramValue finds one key in a decoded parameter list and returns it as
// a uint64 (metrics counters travel as uint64, gauges as int64).
func paramValue(t *testing.T, params []i2o.Param, key string) uint64 {
	t.Helper()
	for _, p := range params {
		if p.Key != key {
			continue
		}
		switch v := p.Value.(type) {
		case uint64:
			return v
		case int64:
			return uint64(v)
		default:
			t.Fatalf("param %s has type %T, want integer", key, p.Value)
		}
	}
	t.Fatalf("param %s missing from reply (%d params)", key, len(params))
	return 0
}

// TestMetricsScrapeOverI2O reproduces the management scheme end to end: a
// host node scrapes a worker's metrics registry over ordinary loopback
// frames (ExecMetricsGet) and the numbers must match what the worker's
// own executive counted locally.
func TestMetricsScrapeOverI2O(t *testing.T) {
	metrics.Enable(true)
	defer metrics.Enable(false)

	host, err := xdaq.NewNode(xdaq.NodeOptions{
		Name: "host", Node: 100, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	worker, err := xdaq.NewNode(xdaq.NodeOptions{
		Name: "worker", Node: 2, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	if err := xdaq.Connect(xdaq.Loopback(), xdaq.Nodes(host, worker)); err != nil {
		t.Fatal(err)
	}

	echo := xdaq.NewDevice("echo", 0)
	echo.Bind(1, func(ctx *xdaq.Context, m *xdaq.Message) error {
		return xdaq.ReplyIfExpected(ctx, m, m.Payload)
	})
	if _, err := worker.Plug(echo); err != nil {
		t.Fatal(err)
	}
	target, err := host.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 25
	for i := 0; i < calls; i++ {
		if _, err := host.Call(target, 1, []byte("ping")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	ctl, err := cluster.NewPrimary(host.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AddNode(2, "worker"); err != nil {
		t.Fatal(err)
	}

	// The scrape's own dispatch is counted after the handler snapshots the
	// registry, so the remote value must equal the local reading taken
	// just before the request.
	localDispatched := worker.Exec.Stats().Dispatched
	params, err := ctl.Metrics(2, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := paramValue(t, params, "exec.dispatched"); got != localDispatched {
		t.Errorf("remote exec.dispatched = %d, local Stats().Dispatched = %d", got, localDispatched)
	}
	if got := paramValue(t, params, "exec.dispatched"); got < calls {
		t.Errorf("exec.dispatched = %d, want at least the %d echo calls", got, calls)
	}
	if got := paramValue(t, params, "pta.pt.loopback.recv"); got == 0 {
		t.Error("pta.pt.loopback.recv = 0 after loopback traffic")
	}
	if got := paramValue(t, params, "pta.pt.loopback.recvBytes"); got == 0 {
		t.Error("pta.pt.loopback.recvBytes = 0 after loopback traffic")
	}
	// Queue wait histograms collect while metrics.Enable(true); the echo
	// requests all travelled at the default priority.
	prio := int(i2o.PriorityDefault)
	key := "exec.queue.wait.p" + string(rune('0'+prio)) + ".count"
	if got := paramValue(t, params, key); got == 0 {
		t.Errorf("%s = 0 with metrics timing enabled", key)
	}
	// The Table 1 whitebox rows are ordinary histograms: every echo
	// request the worker dispatched was timed through demultiplexing.
	if got := paramValue(t, params, "exec.demux.count"); got < calls {
		t.Errorf("exec.demux.count = %d, want at least the %d echo calls", got, calls)
	}
	if got := paramValue(t, params, "exec.demux.p50.ns"); got == 0 {
		t.Error("exec.demux.p50.ns = 0 with metrics timing enabled")
	}

	// Prefix filtering keeps scrapes of a busy node cheap.
	filtered, err := ctl.Metrics(2, "pta.")
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) == 0 {
		t.Fatal("prefix scrape returned nothing")
	}
	for _, p := range filtered {
		if !strings.HasPrefix(p.Key, "pta.") {
			t.Errorf("prefix scrape leaked %q", p.Key)
		}
	}
}

// TestMetricsHTTPExport serves a node's registry the way cmd/xdaqd
// -metrics does and checks the Prometheus text rendering carries the
// executive dispatch counters and the loopback transport's counters.
func TestMetricsHTTPExport(t *testing.T) {
	a, err := xdaq.NewNode(xdaq.NodeOptions{
		Name: "a", Node: 11, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := xdaq.NewNode(xdaq.NodeOptions{
		Name: "b", Node: 12, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := xdaq.Connect(xdaq.Loopback(), xdaq.Nodes(a, b)); err != nil {
		t.Fatal(err)
	}
	echo := xdaq.NewDevice("echo", 0)
	echo.Bind(1, func(ctx *xdaq.Context, m *xdaq.Message) error {
		return xdaq.ReplyIfExpected(ctx, m, m.Payload)
	})
	if _, err := b.Plug(echo); err != nil {
		t.Fatal(err)
	}
	target, err := a.Discover(12, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(target, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(b.Exec.Metrics())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want Prometheus text", ct)
	}
	text := string(body)
	for _, want := range []string{
		"xdaq_exec_dispatched_total",
		"xdaq_pt_loopback_sent_total",
		"xdaq_pta_recv_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus export missing %s\n%s", want, text)
		}
	}
}
