package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dbdht/client"
)

// findRoot locates the repository root (the directory holding cmd/dhtd)
// from the working directory: the root itself or the bench module dir.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dhtd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/dhtd beside or above %s: run from the repository root or from bench/", wd)
}

// buildDir is where binaries, the Go build cache and temporary data dirs
// live: inside the checkout, ignored by git.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildDhtd compiles cmd/dhtd from source into the build dir.
func buildDhtd(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(buildDir(root), "dhtd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dhtd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dhtd: %w\n%s", err, bytes.TrimSpace(out))
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.  dhtd cannot
// report a port it picked itself, so there is a window in which another
// process could take it; start retries on that.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// dhtd is one running daemon subprocess.
type dhtd struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the child has been reaped
	log  *os.File
}

// startDhtd launches bin with the workload's flags, its output appended
// to logPath, and waits until /v1/status answers.
func startDhtd(ctx context.Context, bin string, w workloadSpec, dataDir, logPath string) (*dhtd, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		args := append([]string{"-listen", addr, "-replicas", strconv.Itoa(w.Replicas)}, dhtdBaseArgs...)
		if w.Durable {
			args = append(args, "-data-dir", dataDir, "-fsync", "batch")
		}
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(logf, "--- %s %s\n", bin, strings.Join(args, " "))
		cmd := exec.Command(bin, args...)
		cmd.Stdout = logf
		cmd.Stderr = logf
		// The child must not outlive a benchmark that dies without
		// running its cleanup.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("start dhtd: %w", err)
		}
		d := &dhtd{cmd: cmd, url: "http://" + addr, done: make(chan struct{}), log: logf}
		go func() {
			_ = cmd.Wait() // exit status is in the log; reaping is what matters
			close(d.done)
		}()
		if err := d.waitReady(ctx, 60*time.Second); err != nil {
			d.kill()
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		return d, nil
	}
	return nil, fmt.Errorf("dhtd did not come up: %w (see %s)", lastErr, logPath)
}

func (d *dhtd) waitReady(ctx context.Context, limit time.Duration) error {
	cl := client.New(d.url, client.WithRequestTimeout(time.Second))
	deadline := time.Now().Add(limit)
	for {
		_, err := cl.Status(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-d.done:
			return errors.New("dhtd exited before it was ready")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dhtd not ready after %v: %w", limit, err)
		}
	}
}

// kill sends SIGKILL and waits for the child to be reaped.  Safe to call
// more than once.
func (d *dhtd) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.done
	d.log.Close()
}

// procUsage is a /proc reading of the daemon.
type procUsage struct {
	cpuSeconds float64 // utime+stime
	peakRSSMB  float64 // VmHWM
}

// clockTick is USER_HZ, which Linux fixes at 100 on every architecture
// Go supports; /proc/<pid>/stat counts CPU time in it.
const clockTick = 100

func (d *dhtd) usage() (procUsage, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return procUsage{}, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12 after the ")".
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return procUsage{}, fmt.Errorf("unparseable /proc/%s/stat", pid)
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return procUsage{}, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("bad cpu times in /proc/%s/stat", pid)
	}
	u := procUsage{cpuSeconds: (ut + st) / clockTick}
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return procUsage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return procUsage{}, fmt.Errorf("bad VmHWM in /proc/%s/status", pid)
			}
			u.peakRSSMB = kb / 1024
		}
	}
	return u, nil
}
