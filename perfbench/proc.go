package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one thermserved child process listening on a loopback port.
type server struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	done    chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port. The port is released
// before the server binds it; startServer retries if another process grabs it
// in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with args plus a loopback -addr (and, with
// advertise, the matching worker -advertise URL), and returns once /healthz
// answers 200. logDir receives the process's combined output.
func startServer(ctx context.Context, bin, logDir string, advertise bool, args ...string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		full := append([]string{"-addr", addr}, args...)
		if advertise {
			full = append(full, "-advertise", "http://"+addr)
		}
		s, err := spawn(bin, logDir, full)
		if err != nil {
			return nil, err
		}
		s.url = "http://" + addr
		if lastErr = waitHealthy(ctx, s); lastErr == nil {
			return s, nil
		}
		s.stop(false)
	}
	return nil, lastErr
}

func spawn(bin, logDir string, args []string) (*server, error) {
	logf, err := os.CreateTemp(logDir, "thermserved-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the child if the benchmark dies first, so no server
	// outlives an aborted run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, logPath: logf.Name(), done: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or 20 s
// pass.
func waitHealthy(ctx context.Context, s *server) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("thermserved exited during start-up (%v): %s", s.waitErr, s.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("thermserved at %s not healthy after 20s: %s", s.url, s.logTail())
}

// stop ends the process and waits for it: gracefully (SIGTERM, SIGKILL after
// 15 s) or at once.
func (s *server) stop(graceful bool) {
	sig := syscall.SIGKILL
	if graceful {
		sig = syscall.SIGTERM
	}
	_ = s.cmd.Process.Signal(sig) // fails only if the process already exited
	select {
	case <-s.done:
		return
	case <-time.After(15 * time.Second):
	}
	_ = s.cmd.Process.Kill()
	<-s.done
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 100

// procCPUSeconds returns the user+system CPU time consumed by pid.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (u + st) / clockTick, nil
}

// procPeakRSSMB returns pid's peak resident set size (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostCPUTicks returns the host's total and stolen CPU time (in clock ticks)
// from the aggregate line of /proc/stat; zeros when it cannot be read.
func hostCPUTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
