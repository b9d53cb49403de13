package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// proc is one child process the benchmark started. Every proc is killed
// and waited for before the run that started it returns.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has exited and been reaped
}

// running holds every started process that has not been stopped, so an
// interrupted benchmark can stop them all before it exits.
var running = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

// stopAll stops every process still running.
func stopAll() {
	running.Lock()
	ps := make([]*proc, 0, len(running.procs))
	for p := range running.procs {
		ps = append(ps, p)
	}
	running.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// startProc runs bin with args, logging to dir/name.log. The child also
// gets SIGKILL if the benchmark dies without stopping it.
func startProc(dir, name, bin string, args ...string) (*proc, error) {
	f, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: f, done: make(chan struct{})}
	running.Lock()
	running.procs[p] = true
	running.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop kills the process and returns once it has been reaped. It may be
// called more than once.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // fails only if it already exited, which is the goal
	p.wait()
}

// wait returns once the process has exited and been reaped.
func (p *proc) wait() {
	<-p.done
	running.Lock()
	delete(running.procs, p)
	running.Unlock()
	p.log.Close()
}

// logTail returns the end of the process log, for error messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log.Name())
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// runProc runs a command to completion, failing with its log on error.
func runProc(dir, name, bin string, args ...string) error {
	p, err := startProc(dir, name, bin, args...)
	if err != nil {
		return err
	}
	p.wait()
	if !p.cmd.ProcessState.Success() {
		return fmt.Errorf("%s: %v: %s", name, p.cmd.ProcessState, p.logTail())
	}
	return nil
}

// freeAddr returns a loopback address with a port no one is listening on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// readyPoll is the readiness polling interval: fine enough that polling
// adds well under 1% to a multi-second setup.
const readyPoll = 2 * time.Millisecond

// waitListening polls until addr accepts TCP connections.
func waitListening(p *proc, addr string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			return c.Close()
		}
		if p.exited() {
			return fmt.Errorf("%s exited during start: %s", p.name, p.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not listening on %s after %v", p.name, addr, limit)
		}
		time.Sleep(readyPoll)
	}
}

// procCPU returns the user+system CPU time of a process and all its
// threads.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(b)
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (int64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("%d fields after the command name, want at least 13", len(f))
	}
	var sum int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// procPeakRSS returns a process's peak resident set size in bytes.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(b)
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
	}
	return kb << 10, nil
}

// parseVmHWM returns the VmHWM line of /proc/<pid>/status in kB.
func parseVmHWM(b []byte) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line")
}
