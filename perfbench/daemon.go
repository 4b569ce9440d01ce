package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one riskrouted process booted for the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // host:port
	base   string // http://host:port
	client *http.Client
	exited chan struct{} // closed once the process has been waited for
}

// startDaemon execs bin with args plus a loopback listener on a free port,
// and returns once GET /v1/readyz answers 200, with the time from exec to
// that answer. The daemon keeps its production defaults: request tracing
// and the text access log stay on, and its stderr goes to /dev/null. A
// daemon that exits or stays unready past timeout is killed and reported.
func startDaemon(ctx context.Context, bin string, args []string, timeout time.Duration) (*daemon, time.Duration, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = pw // Stderr stays nil: the access log goes to /dev/null
	// The kernel kills the daemon if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()

	// The daemon prints its resolved listen address on stdout; keep draining
	// the pipe afterwards so it can never block on a write.
	addrc := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "listening on http://"); ok {
				addr, _, _ = strings.Cut(addr, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()

	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, err
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case d.addr = <-addrc:
		d.base = "http://" + d.addr
	case <-d.exited:
		return fail(fmt.Errorf("riskrouted exited before listening: %v", d.cmd.ProcessState))
	case <-deadline.C:
		return fail(fmt.Errorf("riskrouted did not listen within %v", timeout))
	case <-ctx.Done():
		return fail(errStopped)
	}
	// One connection for probes, scrapes and advisory POSTs; the route
	// readers dial their own.
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:    1,
		DisableCompression: true,
	}}
	for {
		resp, err := d.client.Get(d.base + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return fail(fmt.Errorf("riskrouted exited before ready: %v", d.cmd.ProcessState))
		case <-deadline.C:
			return fail(fmt.Errorf("riskrouted not ready within %v", timeout))
		case <-ctx.Done():
			return fail(errStopped)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after a grace period)
// and returns once the process has exited. It is safe to call twice.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// scrape reads the daemon's /metrics exposition into series name -> value
// (unlabelled series only; histogram buckets are skipped).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// peakRSSMiB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
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
	return 0, errors.New("VmHWM not found in /proc status")
}
