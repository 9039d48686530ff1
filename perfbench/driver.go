package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xdaq/internal/daq"
	"xdaq/internal/storage"
)

const (
	// setupRepeats: set-up is timed this many times per run and the
	// median reported; all but the last rig are torn down again.
	setupRepeats = 21
	warmup       = time.Second
	ladderCalls  = 3000
	roundTimeout = 30 * time.Second
	rpcRound     = 500 * time.Millisecond
)

// driver runs one workload end to end and accumulates its checks.
type driver struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	h       *hygiene
	dir     string

	payloads [][]byte
	res      result

	// DAQ accounting across every round, warm-up included.
	rounds        int
	built, stored uint64
	verified      uint64
	stale, lost   uint64

	// RPC accounting across every call, warm-up included.
	calls, callFails int64
}

// phase is one measured window: the untraced one, or in a traced run
// the untraced half followed by the traced half.
type phase struct {
	target  time.Duration
	traced  bool
	wall    time.Duration
	ops     float64
	payload float64
	windows [][2]int64 // wall-clock intervals the phase measured
	acc     map[string]counters
	sw      storage.Stats
	rtts    []float64 // rpc-small closed-loop round trips, µs
	rounds  []roundStat
}

func newPhase(target time.Duration, traced bool) *phase {
	return &phase{target: target, traced: traced, acc: map[string]counters{"driver": {}, "member": {}}}
}

// roundStat is one round's throughput and CPU cost.  The end-to-end
// rates are medians over rounds, so a burst of host noise that spoils a
// few rounds does not move them.
type roundStat struct {
	opsPerS, bytesPerS, cpuPerOp float64
}

// record adds one measured round to the phase.
func (p *phase) record(t0, t1 time.Time, ops, payload float64, drv0, mem0, drv1, mem1 counters) {
	addDelta(p.acc["driver"], drv0, drv1)
	addDelta(p.acc["member"], mem0, mem1)
	dur := t1.Sub(t0)
	p.wall += dur
	p.windows = append(p.windows, [2]int64{t0.UnixNano(), t1.UnixNano()})
	p.ops += ops
	p.payload += payload
	cpu := drv1["cpu_us"] - drv0["cpu_us"] + mem1["cpu_us"] - mem0["cpu_us"]
	p.rounds = append(p.rounds, roundStat{
		opsPerS:   ops / dur.Seconds(),
		bytesPerS: payload / dur.Seconds(),
		cpuPerOp:  ratio(cpu, ops),
	})
}

// median returns the median over rounds of one roundStat field.
func (p *phase) median(pick func(roundStat) float64) float64 {
	xs := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		xs[i] = pick(r)
	}
	return quantile(xs, 0.5)
}

// inside reports whether wall-clock time t (ns) falls in one of the
// phase's measured windows.
func (p *phase) inside(t int64) bool {
	for _, w := range p.windows {
		if t >= w[0] && t < w[1] {
			return true
		}
	}
	return false
}

func (d *driver) violation(format string, args ...any) {
	d.res.violations = append(d.res.violations, fmt.Sprintf(format, args...))
}

func (d *driver) run() (*result, error) {
	d.h.addDir(d.dir)
	d.payloads = makePayloads(d.seed, 256, max(d.w.PayloadSize, probeSize))
	var setups []float64
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		rg, err := setup(d.h, d.w, filepath.Join(d.dir, fmt.Sprintf("setup%d", i)), d.traced)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupRepeats-1 {
			rg.close()
		} else {
			r = rg
		}
	}
	defer r.close()

	probe := d.payloads[0][:probeSize]
	ladderN := ladderCalls
	if !d.traced {
		ladderN = ladderCalls / 3
	}
	local, loop, xproc, err := r.ladder(ladderN, probe)
	if err != nil {
		return nil, err
	}

	total := time.Duration(d.seconds * float64(time.Second))
	phases := []*phase{newPhase(total, false)}
	if d.traced {
		phases = []*phase{newPhase(total/2, false), newPhase(total/2, true)}
	}
	gen := startGenerators(r, d.seed, d.payloads)
	if d.w.Kind == "daq" {
		err = d.runDAQ(r, phases)
	} else {
		err = d.runRPC(r, phases)
	}
	gen.finish()
	if err != nil {
		return nil, err
	}
	if err := r.setTrace(false); err != nil {
		return nil, err
	}
	drv, mem, err := r.snap()
	if err != nil {
		return nil, err
	}
	// Calibrate after the final snapshot, so that the copy's two 32 MiB
	// buffers do not count in the driver's peak RSS.
	calib, spin := memcpyGBs(), hostSpeed()
	if d.w.Kind == "daq" {
		if mem, err = d.finalDAQChecks(r, mem); err != nil {
			return nil, err
		}
	}

	rep := &report{
		d: d, phases: phases, gen: gen, drv: drv, mem: mem,
		setupS: quantile(setups, 0.5), calib: calib, calibSpin: spin, local: local, loop: loop, xproc: xproc,
	}
	if d.traced {
		if err := rep.collectSpans(r); err != nil {
			return nil, err
		}
	}
	rep.build()
	return &d.res, nil
}

// runDAQ runs storage rounds: a warm-up, then each phase until its
// measured time is reached.
func (d *driver) runDAQ(r *rig, phases []*phase) error {
	for warm := time.Duration(0); warm < warmup && len(d.res.violations) == 0; {
		dur, err := d.round(r, nil)
		if err != nil {
			return err
		}
		warm += dur
	}
	for _, ph := range phases {
		if err := r.setTrace(ph.traced); err != nil {
			return err
		}
		for ph.wall < ph.target && len(d.res.violations) == 0 {
			if _, err := d.round(r, ph); err != nil {
				return err
			}
		}
	}
	return nil
}

// round builds RoundEvents events (rounded up to whole blocks) into a
// fresh set of segments, then closes, reads back and removes them.  A
// round keeps the data on disk small enough that the page cache never
// starts write-back, so the writers are measured on their CPU side.
func (d *driver) round(r *rig, ph *phase) (time.Duration, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("seg%04d", d.rounds))
	d.rounds++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for i, sw := range r.sws {
		wr, err := storage.Open(storage.Options{Dir: dir, Instance: i, IndexHint: 2 * d.w.RoundEvents, ArenaSize: d.w.ArenaSize})
		if err != nil {
			return 0, err
		}
		sw.Attach(wr)
	}
	var drv0, mem0 counters
	if ph != nil {
		var err error
		if drv0, mem0, err = r.snap(); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	done, err := r.bu.Start(uint64(d.w.RoundEvents), d.w.Pipeline)
	if err != nil {
		return 0, fmt.Errorf("start round: %w", err)
	}
	select {
	case <-done:
	case <-time.After(roundTimeout):
		d.violation("round %d did not finish within %v: %s", d.rounds, roundTimeout, r.stuck())
		r.bu.Kill()
	}
	t1 := time.Now()
	st, runErr := r.bu.Wait()
	if ph != nil {
		drv1, mem1, err := r.snap()
		if err != nil {
			return 0, err
		}
		ph.record(t0, t1, float64(st.Stored), float64(st.Stored)*float64(d.w.RUs*d.w.FragSize), drv0, mem0, drv1, mem1)
	}

	// Flush, not Close: Close always fsyncs, and a round's hundreds of
	// megabytes going to the disk would put write-back, which this
	// benchmark cannot measure steadily, into the next round.  The
	// read-back then takes the reader's checksum-scan path.
	for i, sw := range r.sws {
		wr := sw.Writer()
		if err := wr.Flush(); err != nil {
			d.violation("round %d: flush segment %d: %v", d.rounds, i, err)
		}
		if ph != nil {
			s := wr.Stats()
			ph.sw.Events += s.Events
			ph.sw.Bytes += s.Bytes
			ph.sw.Flushes += s.Flushes
			ph.sw.Stalls += s.Stalls
		}
	}
	first := d.built + 1
	d.built += st.Built
	d.stored += st.Stored
	d.stale += st.StaleRetries
	d.lost += st.LostBlocks
	if runErr != nil {
		d.violation("round %d: builder: %v", d.rounds, runErr)
	}
	if st.Corrupt != 0 {
		d.violation("round %d: %d corrupt fragments", d.rounds, st.Corrupt)
	}
	if st.Built != st.Stored {
		d.violation("round %d: built %d events but %d acked durable", d.rounds, st.Built, st.Stored)
	}
	n, err := verifySegments(dir, d.w, first, st.Built)
	d.verified += uint64(n)
	if err != nil {
		d.violation("round %d: read-back: %v", d.rounds, err)
	}
	for _, sw := range r.sws {
		sw.Writer().Crash() // releases the writer without a footer or fsync; the files go next
	}
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	return t1.Sub(t0), nil
}

// verifySegments reads every record of a round's segments back with the
// storage reader (which verifies each record's checksum) and checks the
// event set: events [first, first+n) each exactly once, on the stripe
// event%writers, each holding one fragment per readout unit whose fill
// bytes identify that unit and event.  It returns how many records
// passed.
func verifySegments(dir string, w workload, first, n uint64) (int, error) {
	seen := make([]bool, n)
	ok := 0
	var fills [256]int
	for inst := 0; inst < w.Writers; inst++ {
		path := storage.Options{Dir: dir, Instance: inst}.Path()
		rd, err := storage.OpenReader(path)
		if err != nil {
			return ok, err
		}
		if rd.Torn() != 0 {
			rd.Close()
			return ok, fmt.Errorf("%s: %d torn bytes after a flush", path, rd.Torn())
		}
		for i := 0; i < rd.Len(); i++ {
			ev, payload, err := rd.Record(i)
			if err != nil {
				rd.Close()
				return ok, err
			}
			if ev < first || ev >= first+n || seen[ev-first] {
				rd.Close()
				return ok, fmt.Errorf("event %d unexpected or duplicated (round holds %d..%d)", ev, first, first+n-1)
			}
			seen[ev-first] = true
			if int(ev%uint64(w.Writers)) != inst {
				rd.Close()
				return ok, fmt.Errorf("event %d on stripe %d", ev, inst)
			}
			if len(payload) != w.RUs*w.FragSize {
				rd.Close()
				return ok, fmt.Errorf("event %d: %d bytes, want %d", ev, len(payload), w.RUs*w.FragSize)
			}
			for ru := 0; ru < w.RUs; ru++ {
				fills[daq.FragmentFill(ru, ev)]++
			}
			for off := 0; off < len(payload); off += w.FragSize {
				frag := payload[off : off+w.FragSize]
				// A fragment is one fill byte repeated: it equals itself shifted by one.
				if !bytes.Equal(frag[1:], frag[:len(frag)-1]) {
					rd.Close()
					return ok, fmt.Errorf("event %d: fragment at %d is not uniformly filled", ev, off)
				}
				fills[frag[0]]--
			}
			for ru := 0; ru < w.RUs; ru++ {
				if f := daq.FragmentFill(ru, ev); fills[f] != 0 {
					rd.Close()
					return ok, fmt.Errorf("event %d: fragment fill bytes do not match its readout units", ev)
				}
			}
			ok++
		}
		if err := rd.Close(); err != nil {
			return ok, err
		}
	}
	if uint64(ok) != n {
		return ok, fmt.Errorf("%d of %d events read back", ok, n)
	}
	return ok, nil
}

// finalDAQChecks closes the run's accounting: the EVM's built count must
// reach the builder's (its notifications travel one-way at low
// priority, so it may lag briefly), and every built event must have been
// stored and read back.
func (d *driver) finalDAQChecks(r *rig, mem counters) (counters, error) {
	deadline := time.Now().Add(5 * time.Second)
	for uint64(mem["evm.built"]) != d.built && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		var err error
		if _, mem, err = r.snap(); err != nil {
			return nil, err
		}
	}
	if got := uint64(mem["evm.built"]); got != d.built {
		d.violation("EVM counted %d built events, builder %d", got, d.built)
	}
	if dup := mem["evm.duplicates"]; dup != 0 {
		d.violation("EVM saw %v duplicate built notes", dup)
	}
	if d.built != d.stored || d.stored != d.verified {
		d.violation("built %d, stored %d, read back %d", d.built, d.stored, d.verified)
	}
	return mem, nil
}

// runRPC runs the closed-loop callers: a warm-up, then each phase in
// rounds of rpcRound.
func (d *driver) runRPC(r *rig, phases []*phase) error {
	if err := d.callRound(r, warmup, nil); err != nil {
		return err
	}
	for _, ph := range phases {
		if err := r.setTrace(ph.traced); err != nil {
			return err
		}
		for ph.wall < ph.target {
			if err := d.callRound(r, rpcRound, ph); err != nil {
				return err
			}
		}
	}
	return nil
}

// callRound runs Callers closed-loop callers for dur; each sends its
// next request only after the previous reply arrived and was checked.
func (d *driver) callRound(r *rig, dur time.Duration, ph *phase) error {
	var drv0, mem0 counters
	if ph != nil {
		var err error
		if drv0, mem0, err = r.snap(); err != nil {
			return err
		}
	}
	type callerOut struct {
		rtts         []float64
		calls, fails int64
		firstErr     error
	}
	outs := make([]callerOut, d.w.Callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(dur)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			buf := make([]byte, d.w.PayloadSize)
			for k := 0; time.Now().Before(end); k++ {
				payload := d.payloads[(k*len(outs)+i)%len(d.payloads)]
				t := time.Now()
				err := r.echoCall(buf, payload)
				o.calls++
				if err != nil {
					o.fails++
					if o.firstErr == nil {
						o.firstErr = err
					}
					continue
				}
				o.rtts = append(o.rtts, micros(time.Since(t)))
			}
		}(i)
	}
	wg.Wait()
	t1 := time.Now()
	ok := 0
	for _, o := range outs {
		ok += len(o.rtts)
		d.calls += o.calls
		d.callFails += o.fails
		if o.firstErr != nil {
			d.violation("%d of %d calls failed, first: %v", o.fails, o.calls, o.firstErr)
		}
		if ph != nil {
			ph.rtts = append(ph.rtts, o.rtts...)
		}
	}
	if ph == nil {
		return nil
	}
	drv1, mem1, err := r.snap()
	if err != nil {
		return err
	}
	ph.record(t0, t1, float64(ok), float64(ok*d.w.PayloadSize), drv0, mem0, drv1, mem1)
	return nil
}
