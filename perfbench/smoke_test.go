package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestMain lets the test binary serve as the member process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if raw := os.Getenv(memberEnv); raw != "" {
		os.Exit(runMember(raw))
	}
	os.Exit(m.Run())
}

// TestManifestCommitted checks that BENCHMARK.json at the repository root
// is what the metric tables generate, and that it keeps the contract's
// limits.
func TestManifestCommitted(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
	names := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q: duplicate or too long", m.Name)
		}
		names[m.Name] = true
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload very briefly, untraced and traced, and
// checks that the output checks pass and every metric in BENCHMARK.json
// is reported with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns member processes")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.Name+"/trace="+strconv.FormatBool(traced), func(t *testing.T) {
				h := newHygiene()
				dir := filepath.Join(t.TempDir(), "run")
				d := &driver{w: w, seed: 7, seconds: 0.6, traced: traced, h: h, dir: dir}
				res, err := d.run()
				h.cleanup()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(dir); !os.IsNotExist(err) {
					t.Errorf("run directory left behind: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed: attempted %d failed %d: %v", res.Attempted, res.Failed, res.violations)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", m.Name, got.Value)
					}
				}
				raw, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back map[string]any
				if err := json.Unmarshal(raw, &back); err != nil || len(back) != 4 {
					t.Fatalf("result line %s: keys %v, err %v", raw, back, err)
				}
			})
		}
	}
}
