package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDir holds everything a run leaves in the checkout: the server
// binary, the data directories of the run, child logs and span dumps.
const buildDir = ".bench_build"

// buildServer compiles cmd/bfabric into buildDir. The go build cache makes
// every build after a checkout's first a sub-second no-op.
func buildServer() (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "bfabric", "main.go")); err != nil {
		return "", fmt.Errorf("not at the root of the repository: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bfabric"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bfabric")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/bfabric: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every server process the run started, so that no exit
// path leaves one behind.
var children struct {
	sync.Mutex
	live map[*child]bool
}

func killAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// child is one bfabric server process.
type child struct {
	cmd      *exec.Cmd
	addr     string // HTTP listen address
	replAddr string // -replicate-listen address, "" on followers
	dir      string
	args     []string
	bin      string
	log      *os.File
	exited   chan struct{} // closed once the process has been reaped
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startPrimary launches the server on dataDir with production defaults
// (-fsync always, default admission gate and timeouts) plus a replication
// listener, which costs the commit path nothing until a follower attaches.
func startPrimary(bin, dataDir string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	repl, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{bin: bin, addr: addr, replAddr: repl, dir: dataDir,
		args: []string{"-addr", addr, "-data-dir", dataDir, "-fsync", "always", "-replicate-listen", repl}}
	return c, c.start()
}

// startFollower launches a read replica of primary on its own data dir.
func startFollower(bin, dataDir string, primary *child) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{bin: bin, addr: addr, dir: dataDir,
		args: []string{"-addr", addr, "-data-dir", dataDir, "-fsync", "always", "-replicate-from", primary.replAddr}}
	return c, c.start()
}

func (c *child) start() error {
	if c.log == nil {
		f, err := os.Create(c.dir + ".log")
		if err != nil {
			return err
		}
		c.log = f
	}
	c.cmd = exec.Command(c.bin, c.args...)
	c.cmd.Stdout, c.cmd.Stderr = c.log, c.log
	if err := onServerCPUs(c.cmd.Start); err != nil {
		return err
	}
	exited := make(chan struct{})
	c.exited = exited
	go func(cmd *exec.Cmd) {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		close(exited)
	}(c.cmd)
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	children.live[c] = true
	children.Unlock()
	return nil
}

// kill sends SIGKILL and reaps the process: the server gets no chance to
// flush or close anything.
func (c *child) kill() {
	children.Lock()
	alive := children.live[c]
	delete(children.live, c)
	children.Unlock()
	if !alive {
		return
	}
	_ = c.cmd.Process.Kill()
	<-c.exited
}

func (c *child) closeLog() {
	if c.log != nil {
		c.log.Close()
		c.log = nil
	}
}

// probe issues one GET on a fresh connection and returns status and body.
func probe(addr, path, token string) (int, []byte, error) {
	cn := &conn{addr: addr}
	defer cn.close()
	status, _, body, err := cn.roundTrip("GET", path, token, "", "", "")
	return status, body, err
}

// waitHTTP polls path until ok accepts the answer or the timeout passes.
// The child dying meanwhile ends the wait at once.
func (c *child) waitHTTP(path string, timeout time.Duration, ok func(status int, body []byte) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		status, body, err := probe(c.addr, path, "")
		if err == nil && ok(status, body) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s %s: not ready after %v (status %d, err %v)", c.addr, path, timeout, status, err)
		}
		select {
		case <-c.exited:
			return fmt.Errorf("server %s exited, see %s.log", c.addr, c.dir)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// waitReady waits for /readyz to answer 200: recovered and writable.
func (c *child) waitReady() error {
	return c.waitHTTP("/readyz", 60*time.Second, func(status int, _ []byte) bool {
		return status == http.StatusOK
	})
}

// replStatus is the part of GET /api/replication the benchmark reads.
type replStatus struct {
	Role        string `json:"role"`
	CommitSeq   uint64 `json:"commitSeq"`
	Replication struct {
		Connected   bool   `json:"connected"`
		LastApplied uint64 `json:"lastApplied"`
		Lag         uint64 `json:"lag"`
	} `json:"replication"`
}

func (c *child) replication() (replStatus, error) {
	var st replStatus
	status, body, err := probe(c.addr, "/api/replication", "")
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/api/replication: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// waitCaughtUp waits until the follower reports a live session, lag 0 and
// at least the commit sequence the primary had when the wait began.
func (c *child) waitCaughtUp(primarySeq uint64) error {
	return c.waitHTTP("/api/replication", 60*time.Second, func(status int, body []byte) bool {
		var st replStatus
		if status != http.StatusOK || json.Unmarshal(body, &st) != nil {
			return false
		}
		return st.Replication.Connected && st.Replication.Lag == 0 && st.Replication.LastApplied >= primarySeq
	})
}

// cpuSeconds reads the process's user+system CPU time from /proc.
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := string(data[strings.LastIndexByte(string(data), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return (utime + stime) / clockTicks, nil
}

// stolenSeconds is how long, summed over its CPUs, this virtual machine had
// work to run while its host ran something else: the steal column of
// /proc/stat, 0 on a machine that reports none.
func stolenSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, nil
	}
	steal, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("bad /proc/stat steal time")
	}
	return steal / clockTicks, nil
}

// clockTicks is USER_HZ, which Linux fixes at 100 on every architecture
// Go supports.
const clockTicks = 100

// peakRSSMB reads the process's resident-set high-water mark.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
