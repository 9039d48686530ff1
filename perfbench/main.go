// Command perfbench is the repository's benchmark: it runs one named
// workload as a driver process plus one member process joined into one
// cluster, checks every output, and prints each metric by name and unit.
// The last line of standard output is the machine-readable result.
//
//	perfbench --workload daq-tree --seed 1 --seconds 10 --trace 0
//	perfbench --manifest > BENCHMARK.json
//
// See README.md in this directory for the workloads, the metrics and the
// layers each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

func main() {
	// The driver and the member share the host's cores: each process runs
	// Go code on half of them, so the two together never have more threads
	// running than there are cores and the run measures the program, not
	// the scheduler handing cores between them.  On a 2-core host this
	// also runs a handoff between goroutines on the thread that made it.
	runtime.GOMAXPROCS(max(1, runtime.NumCPU()/2))
	if raw := os.Getenv(memberEnv); raw != "" {
		os.Exit(runMember(raw))
	}
	var (
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload daq-tree|daq-bulk|rpc-small --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	runs := filepath.Join(".bench_build", "runs")
	sweepStale(runs)
	h := newHygiene()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		h.cleanup()
		fmt.Fprintf(os.Stderr, "perfbench: %v: members stopped, scratch removed\n", s)
		os.Exit(1)
	}()

	d := &driver{
		w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, h: h,
		dir: filepath.Join(runs, strconv.Itoa(os.Getpid())),
	}
	res, err := d.run()
	h.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines      []string // human-readable report, printed before the JSON
	violations []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	for _, v := range r.violations {
		fmt.Fprintln(f, "CHECK FAILED:", v)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(raw))
}
