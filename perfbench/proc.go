package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// hygiene tracks what a run leaves behind — member processes and
// scratch directories — so every exit path, including a signal, kills
// and reaps the members and removes the directories.
type hygiene struct {
	mu    sync.Mutex
	procs map[*memberProc]bool
	dirs  []string
}

func newHygiene() *hygiene { return &hygiene{procs: map[*memberProc]bool{}} }

func (h *hygiene) addDir(dir string) {
	h.mu.Lock()
	h.dirs = append(h.dirs, dir)
	h.mu.Unlock()
}

// cleanup kills every live member, waits for each to exit, and removes
// the registered directories.  Safe to call more than once.
func (h *hygiene) cleanup() {
	h.mu.Lock()
	procs := h.procs
	dirs := h.dirs
	h.procs = map[*memberProc]bool{}
	h.dirs = nil
	h.mu.Unlock()
	for p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort: nothing else can be done on the way out
	}
}

// sweepStale removes run directories left by earlier runs whose driver
// is gone (killed before it could clean up).  Their members died with
// their driver (parent-death signal), so only files remain.
func sweepStale(runs string) {
	entries, err := os.ReadDir(runs)
	if err != nil {
		return
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			_ = os.RemoveAll(filepath.Join(runs, e.Name())) // another run may race us to it
		}
	}
}

// memberProc is the driver's handle on the member process.
type memberProc struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *os.File
	dec    *json.Decoder
	exited chan struct{}
	h      *hygiene
}

// replyTimeout bounds one control exchange with the member.
const replyTimeout = 20 * time.Second

// spawnMember re-execs this binary as the member and waits for it to
// report that it joined and plugged its devices.
func spawnMember(h *hygiene, cfg memberConfig) (*memberProc, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), memberEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	// The kernel kills the member if the driver dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = outW
	if err := cmd.Start(); err != nil {
		outR.Close()
		outW.Close()
		return nil, fmt.Errorf("spawn member: %w", err)
	}
	outW.Close()
	p := &memberProc{cmd: cmd, in: in, out: outR, dec: json.NewDecoder(bufio.NewReader(outR)), exited: make(chan struct{}), h: h}
	go func() {
		_ = cmd.Wait() // the exit status is not informative: members are killed on purpose
		close(p.exited)
	}()
	h.mu.Lock()
	h.procs[p] = true
	h.mu.Unlock()

	rep, err := p.read()
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("member start: %w", err)
	}
	if !rep.Ready {
		p.kill()
		return nil, fmt.Errorf("member start: %s", rep.Err)
	}
	return p, nil
}

func (p *memberProc) read() (reply, error) {
	var rep reply
	if err := p.out.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return rep, err
	}
	if err := p.dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("member reply: %w", err)
	}
	return rep, nil
}

// call sends one command and returns the member's reply.
func (p *memberProc) call(cmd command) (reply, error) {
	raw, err := json.Marshal(cmd)
	if err != nil {
		return reply{}, err
	}
	if _, err := p.in.Write(append(raw, '\n')); err != nil {
		return reply{}, fmt.Errorf("member command: %w", err)
	}
	rep, err := p.read()
	if err == nil && rep.Err != "" {
		err = fmt.Errorf("member %s: %s", cmd.Op, rep.Err)
	}
	return rep, err
}

// stop asks the member to exit by closing its stdin, and kills it if it
// has not exited within a grace period.
func (p *memberProc) stop() {
	p.in.Close()
	select {
	case <-p.exited:
	case <-time.After(3 * time.Second):
	}
	p.kill()
}

// kill ends the member and waits until it has been reaped.
func (p *memberProc) kill() {
	_ = p.cmd.Process.Kill() // fails only when the process already exited
	<-p.exited
	p.in.Close()
	p.out.Close()
	p.h.mu.Lock()
	delete(p.h.procs, p)
	p.h.mu.Unlock()
}
