package main

import (
	"bytes"
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

// The fleet every workload runs on: one router in front of two durable
// shards splitting a 4×2 tile grid — three server processes for the
// two cores of the box the bounds were calibrated on.
const (
	numShards = 2
	tileSpec  = "grid:4x2@0,0,10000,10000;shards=2"

	healthPoll = 5 * time.Millisecond
	bootLimit  = 20 * time.Second
	stopLimit  = 15 * time.Second
)

// repoRoot finds the repository root — the directory holding the
// server commands — at or above the working directory, so the
// benchmark runs both from the root and from its own directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ildq-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (cmd/ildq-serve) at or above the working directory")
		}
		dir = parent
	}
}

// buildBinaries compiles the two server commands into
// <root>/.bench_build/bin — before any clock starts — and returns
// that directory.
func buildBinaries(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/ildq-serve", "./cmd/ildq-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building the server binaries: %w\n%s", err, out)
	}
	return bin, nil
}

// process is one server of the fleet.
type process struct {
	name   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been waited for
	err    error         // cmd.Wait's result; read after exited closes
}

func startProcess(name, path string, args ...string) (*process, error) {
	p := &process{name: name, cmd: exec.Command(path, args...), exited: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// stop sends SIGTERM and requires a clean exit: a server that dies
// on shutdown, or hangs, fails the run.
func (p *process) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: signal: %w", p.name, err)
	}
	select {
	case <-p.exited:
		if p.err != nil {
			return fmt.Errorf("%s: exit after SIGTERM: %w\n%s", p.name, p.err, p.stderr.String())
		}
		return nil
	case <-time.After(stopLimit):
		p.kill()
		return fmt.Errorf("%s: still running %v after SIGTERM", p.name, stopLimit)
	}
}

// kill ends the process unconditionally and waits for it.
func (p *process) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already exited
	<-p.exited
}

// fleet is a running router + shards deployment on fresh data dirs.
type fleet struct {
	routerURL string
	router    *process
	shards    []*process
	dataDir   string
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHealthy polls /healthz every healthPoll until it answers 200,
// the process dies, or bootLimit passes.
func waitHealthy(p *process, base string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(bootLimit)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during boot: %v\n%s", p.name, p.err, p.stderr.String())
		default:
		}
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(healthPoll)
	}
	return fmt.Errorf("%s never became healthy at %s\n%s", p.name, base, p.stderr.String())
}

// startFleet boots the shards, waits for them, then boots the router
// over them. On any failure everything already started is killed.
func startFleet(bin, dataDir string) (*fleet, error) {
	f := &fleet{dataDir: dataDir}
	if err := f.boot(bin); err != nil {
		f.kill()
		return nil, err
	}
	return f, nil
}

func (f *fleet) boot(bin string) error {
	urls := make([]string, numShards)
	for i := range numShards {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		urls[i] = "http://" + addr
		p, err := startProcess(fmt.Sprintf("shard %d", i), filepath.Join(bin, "ildq-serve"),
			"-addr", addr, "-shard-id", strconv.Itoa(i), "-tiles", tileSpec,
			"-data-dir", filepath.Join(f.dataDir, fmt.Sprintf("shard%d", i)), "-fsync", "interval",
			"-log-level", "warn")
		if err != nil {
			return err
		}
		f.shards = append(f.shards, p)
	}
	for i, p := range f.shards {
		if err := waitHealthy(p, urls[i]); err != nil {
			return err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	f.routerURL = "http://" + addr
	f.router, err = startProcess("router", filepath.Join(bin, "ildq-router"),
		"-addr", addr, "-shards", strings.Join(urls, ","), "-tiles", tileSpec, "-log-level", "warn")
	if err != nil {
		return err
	}
	return waitHealthy(f.router, f.routerURL)
}

func (f *fleet) procs() []*process {
	if f.router == nil {
		return f.shards
	}
	return append([]*process{f.router}, f.shards...)
}

// stop shuts the fleet down gracefully, router first, requires every
// process to exit 0, and removes the data directory.
func (f *fleet) stop() error {
	var first error
	for _, p := range f.procs() {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	os.RemoveAll(f.dataDir)
	return first
}

func (f *fleet) kill() {
	for _, p := range f.procs() {
		p.kill()
	}
	os.RemoveAll(f.dataDir)
}

// walBytes sums the sizes of the WAL segment files of the shards under
// dataDir.
func walBytes(dataDir string) int64 {
	files, _ := filepath.Glob(filepath.Join(dataDir, "shard*", "wal", "wal-*.log"))
	var n int64
	for _, name := range files {
		if st, err := os.Stat(name); err == nil {
			n += st.Size()
		}
	}
	return n
}

// clockTick is the kernel's USER_HZ; /proc reports CPU time in these
// units and Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads utime+stime of a process from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may itself contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	fields := strings.Fields(stat[i+1:]) // fields[0] is field 3 (state)
	if len(fields) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS reads VmHWM (peak resident set, bytes) from /proc/<pid>/status.
func peakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(raw))
}

func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in status")
}

// usage is a reading of the fleet's resource use: CPU time consumed so
// far by the router and by the shards, and their peak resident sets.
type usage struct {
	routerCPU, shardCPU, selfCPU time.Duration
	routerRSS, shardRSS          int64
}

func (f *fleet) usage() (usage, error) {
	var u usage
	var err error
	if u.routerCPU, err = cpuTime(f.router.cmd.Process.Pid); err != nil {
		return u, err
	}
	if u.routerRSS, err = peakRSS(f.router.cmd.Process.Pid); err != nil {
		return u, err
	}
	for _, p := range f.shards {
		c, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return u, err
		}
		r, err := peakRSS(p.cmd.Process.Pid)
		if err != nil {
			return u, err
		}
		u.shardCPU += c
		u.shardRSS += r
	}
	u.selfCPU, err = cpuTime(os.Getpid())
	return u, err
}
