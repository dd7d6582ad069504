package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs is every server process the benchmark has started and not yet
// stopped, so an error path or an interrupt can stop them all.
var procs procSet

type procSet struct {
	mu   sync.Mutex
	live map[*proc]bool
}

func (ps *procSet) add(p *proc) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.live == nil {
		ps.live = map[*proc]bool{}
	}
	ps.live[p] = true
}

func (ps *procSet) remove(p *proc) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	delete(ps.live, p)
}

// stopAll stops every live server process and waits for each to end.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	all := make([]*proc, 0, len(ps.live))
	for p := range ps.live {
		all = append(all, p)
	}
	ps.mu.Unlock()
	for _, p := range all {
		p.stop()
	}
}

// proc is one server process. It leads its own process group, so the
// children a gateway spawns can be found and, if need be, killed with
// it.
type proc struct {
	name string
	addr string
	log  string
	cmd  *exec.Cmd
	done chan struct{}
	once sync.Once
}

// startProc launches bin on a reserved loopback port (passed as -addr)
// and waits until its /healthz answers. Output goes to <logDir>/<name>.log.
func startProc(name, bin, logDir string, env []string, args ...string) (*proc, error) {
	addr, err := reservePort()
	if err != nil {
		return nil, fmt.Errorf("reserve port for %s: %w", name, err)
	}
	logPath := filepath.Join(logDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Pdeathsig: should the benchmark itself be killed, the server still
	// gets its SIGTERM (and a gateway still reaps its backends).
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	procs.add(p)
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	if err := waitHealthy(addr, 30*time.Second, p.done); err != nil {
		p.stop()
		return nil, fmt.Errorf("%s: %w\n%s", name, err, tail(logPath, 2048))
	}
	return p, nil
}

// stop ends the process: SIGTERM first, so a gateway reaps the children
// it spawned, then SIGKILL to whatever is left of its process group.
// It returns once the process has been waited for.
func (p *proc) stop() {
	p.once.Do(func() {
		pid := p.cmd.Process.Pid
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = syscall.Kill(-pid, syscall.SIGKILL)
			<-p.done
		}
		// ESRCH when the group is already empty, the normal case.
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		procs.remove(p)
	})
}

// pids returns the process and every process in its group (a
// gateway's spawned backends).
func (p *proc) pids() []int {
	pgid := p.cmd.Process.Pid
	out := []int{pgid}
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return out
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == pgid {
			continue
		}
		if f := statFields(pid); len(f) > 2 && f[2] == strconv.Itoa(pgid) {
			out = append(out, pid)
		}
	}
	return out
}

// statFields returns the fields of /proc/<pid>/stat after the command
// name: [0] is the state, [2] the process group, [11] and [12] user
// and system time in clock ticks.
func statFields(pid int) []string {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil
	}
	// The command name is parenthesized and may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(string(data[i+1:]))
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times. It is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime sums user and system CPU time over pids.
func cpuTime(pids []int) time.Duration {
	var ticks int64
	for _, pid := range pids {
		f := statFields(pid)
		if len(f) < 13 {
			continue
		}
		u, _ := strconv.ParseInt(f[11], 10, 64)
		s, _ := strconv.ParseInt(f[12], 10, 64)
		ticks += u + s
	}
	return time.Duration(ticks) * clockTick
}

// peakRSSMB sums VmHWM (peak resident set) over pids, in MiB.
func peakRSSMB(pids []int) float64 {
	var kb int64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					n, _ := strconv.ParseInt(f[0], 10, 64)
					kb += n
				}
			}
		}
	}
	return float64(kb) / 1024
}

// selfCPU is the benchmark process's own CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reservePort binds an ephemeral loopback port and releases it for the
// server to claim.
func reservePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitHealthy polls /healthz every 2ms, so set-up times are not
// rounded up to a coarse poll interval. It gives up when the process
// exits or the timeout passes.
func waitHealthy(addr string, timeout time.Duration, exited <-chan struct{}) error {
	c := &http.Client{Timeout: 500 * time.Millisecond}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("exited before becoming healthy")
		default:
		}
		resp, err := c.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("not healthy after %v", timeout)
}

// tail returns the last n bytes of a file, for error reports.
func tail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(data) > n {
		data = data[len(data)-n:]
	}
	return string(data)
}

// buildServers compiles websimd and llmstub into dir.
func buildServers(dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "repro/cmd/websimd", "repro/cmd/llmstub")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}
