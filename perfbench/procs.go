package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stopGrace is how long a process under test gets to exit after
// SIGTERM before it is SIGKILLed.
const stopGrace = 5 * time.Second

// fleet owns every process the benchmark starts. Each one is a direct
// child, in its own process group, started with a parent-death signal
// from one goroutine locked to its OS thread for the life of the
// benchmark: Linux sends Pdeathsig when the parent *thread* exits, so
// the thread that forks must outlive every child. If the benchmark is
// killed outright, the kernel SIGKILLs the children; on any other exit
// stopAll terminates and reaps them, and verify proves they are gone.
type fleet struct {
	spawn chan spawnReq
	env   []string

	mu    sync.Mutex
	procs []*proc
	pids  []int
	// onStart observes each started process (its name and pid); the
	// benchmark logs them so an outside observer can check for leaks.
	onStart func(name string, pid int)
}

type spawnReq struct {
	cmd  *exec.Cmd
	done chan error
}

// proc is one started process under test.
type proc struct {
	pid  int
	done chan struct{} // closed once the process is reaped
	err  error         // Wait's result, valid after done
}

// newFleet starts the spawner goroutine. tmp becomes the children's
// TMPDIR so they write nothing outside the checkout.
func newFleet(tmp string, onStart func(string, int)) *fleet {
	f := &fleet{spawn: make(chan spawnReq), onStart: onStart}
	f.env = append(os.Environ(), "TMPDIR="+tmp)
	go f.spawner()
	return f
}

// spawner forks every child from one locked OS thread. It never
// returns and never unlocks: a goroutine that exits while locked takes
// its thread with it, and that would fire every child's Pdeathsig.
func (f *fleet) spawner() {
	runtime.LockOSThread()
	for req := range f.spawn {
		req.done <- req.cmd.Start()
	}
}

// start launches bin with args. Every complete line the child writes
// to stdout or stderr is passed to onLine (which may be nil) from the
// copying goroutine.
func (f *fleet) start(name, bin string, args []string, onLine func(string)) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = f.env
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	lw := &lineWriter{onLine: onLine}
	cmd.Stdout, cmd.Stderr = lw, lw
	req := spawnReq{cmd: cmd, done: make(chan error, 1)}
	f.spawn <- req
	if err := <-req.done; err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{pid: cmd.Process.Pid, done: make(chan struct{})}
	f.mu.Lock()
	f.procs = append(f.procs, p)
	f.pids = append(f.pids, p.pid)
	f.mu.Unlock()
	if f.onStart != nil {
		f.onStart(name, p.pid)
	}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// alive reports whether p has not been reaped yet.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// stopAll sends SIGTERM to every live process group, waits up to
// stopGrace, SIGKILLs what remains and reaps everything. It is safe to
// call repeatedly.
func (f *fleet) stopAll() {
	f.mu.Lock()
	procs := append([]*proc(nil), f.procs...)
	f.procs = nil
	f.mu.Unlock()
	stopProcs(procs)
}

// stopProcs terminates and reaps procs (see stopAll).
func stopProcs(procs []*proc) {
	for _, p := range procs {
		if p.alive() {
			_ = syscall.Kill(-p.pid, syscall.SIGTERM) // ESRCH: already gone
		}
	}
	deadline := time.NewTimer(stopGrace)
	defer deadline.Stop()
	for _, p := range procs {
		select {
		case <-p.done:
		case <-deadline.C:
			// Fire once, then kill everything still running.
			for _, q := range procs {
				if q.alive() {
					_ = syscall.Kill(-q.pid, syscall.SIGKILL)
				}
			}
			<-p.done
		}
	}
	for _, p := range procs {
		<-p.done
	}
}

// verify checks that no process the fleet ever started, and no member
// of its process group, is still running.
func (f *fleet) verify() error {
	f.mu.Lock()
	pids := append([]int(nil), f.pids...)
	f.mu.Unlock()
	var left []string
	for _, pid := range pids {
		if running(pid) || syscall.Kill(-pid, 0) == nil {
			left = append(left, fmt.Sprint(pid))
		}
	}
	if len(left) > 0 {
		return fmt.Errorf("processes still running after teardown: %s", strings.Join(left, ","))
	}
	return nil
}

// running reports whether pid names a live process. A zombie has
// exited and only waits for its parent to reap it, so it does not
// count.
func running(pid int) bool {
	if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
		return false
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state follows the parenthesised command name.
	i := bytes.LastIndexByte(stat, ')')
	return i < 0 || i+2 >= len(stat) || stat[i+2] != 'Z'
}

// peakRSSMiB returns VmHWM of pid in MiB, or 0 if it cannot be read.
func peakRSSMiB(pid int) float64 {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// lineWriter splits a child's output into lines.
type lineWriter struct {
	mu     sync.Mutex
	buf    []byte
	onLine func(string)
}

func (w *lineWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, b...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if w.onLine != nil {
			w.onLine(line)
		}
	}
	return len(b), nil
}
