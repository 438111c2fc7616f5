package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// proc is one spawned server process.
type proc struct {
	name   string
	args   []string
	url    string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once Wait returned
}

// cluster is the set of processes one workload runs against.
type cluster struct {
	dir    string
	nodes  []*proc
	router *proc
	target string   // base URL the load is sent to
	data   []string // directories whose bytes count as stored data
}

func (c *cluster) procs() []*proc {
	if c.router == nil {
		return c.nodes
	}
	return append(append([]*proc(nil), c.nodes...), c.router)
}

// freePort asks the kernel for an unused loopback port. Another process
// could take it before the server binds it; the server then fails to
// start and the run reports that.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startCluster spawns wl's processes in dir and waits until each answers
// /healthz. Their data directories are given relative to dir, so the
// flags a result file records are the same on every machine.
func startCluster(ctx context.Context, bin, dir string, wl *workload) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	names := []string{"a", "b", "c", "d"}[:wl.nodes]
	urls := make([]string, wl.nodes)
	var peers []string
	for i, n := range names {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		urls[i] = "http://127.0.0.1:" + strconv.Itoa(port)
		peers = append(peers, n+"="+urls[i])
	}
	for i, n := range names {
		args := []string{"-addr", strings.TrimPrefix(urls[i], "http://")}
		if wl.walSync != "" {
			c.data = append(c.data, filepath.Join(dir, "data-"+n))
			args = append(args, "-data-dir", "data-"+n, "-wal-sync", wl.walSync)
		}
		if wl.residentBudget > 0 {
			args = append(args, "-cold-dir", "cold",
				"-resident-budget-bytes", strconv.FormatInt(wl.residentBudget, 10))
		}
		if wl.nodes > 1 {
			args = append(args, "-node-name", n, "-peers", strings.Join(peers, ","))
		}
		p, err := spawn(filepath.Join(bin, "provmind"), "provmind-"+n, urls[i], dir, args)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, p)
	}
	if wl.residentBudget > 0 {
		c.data = append(c.data, filepath.Join(dir, "cold"))
	}
	c.target = urls[0]
	if wl.nodes > 1 {
		port, err := freePort()
		if err != nil {
			c.stop()
			return nil, err
		}
		url := "http://127.0.0.1:" + strconv.Itoa(port)
		args := []string{"-addr", strings.TrimPrefix(url, "http://"), "-peers", strings.Join(peers, ",")}
		p, err := spawn(filepath.Join(bin, "provrouter"), "provrouter", url, dir, args)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.router, c.target = p, url
	}
	for _, p := range c.procs() {
		if err := p.waitHealthy(ctx); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func spawn(path, name, url, dir string, args []string) (*proc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{execIdleArg, path}, args...)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even when the benchmark
	// is killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, args: args, url: url, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// execIdleArg, as the first argument, makes provload exec the program
// that follows under the SCHED_IDLE policy instead of running. The load
// generator shares the two cores with the servers. At equal priority, or
// with the servers only niced, the kernel let a busy server finish its
// time slice before a woken generator ran, and the generator's lag p99
// reached 5–7 ms; a SCHED_IDLE task is preempted as soon as any other task
// wakes. Every thread a server starts inherits the policy from the thread
// that execs it.
const execIdleArg = "-exec-sched-idle"

const schedIdle = 5 // SCHED_IDLE from <linux/sched.h>

// execIdle replaces this process with argv under SCHED_IDLE; it returns
// only on failure.
func execIdle(argv []string) error {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		return fmt.Errorf("sched_setscheduler: %w", e)
	}
	return syscall.Exec(argv[0], argv, os.Environ())
}

// waitHealthy polls /healthz until it answers 200.
func (p *proc) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := adminClient.Get(p.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up: %s", p.name, p.tail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(250 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never answered /healthz: %s", p.name, p.tail())
		}
	}
}

// tail returns the last lines of the process log, for error messages.
func (p *proc) tail() string {
	b, err := os.ReadFile(p.log.Name())
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 3 {
		lines = lines[len(lines)-3:]
	}
	return strings.Join(lines, " | ")
}

// stop ends every process, gracefully first, and waits for each to exit.
func (c *cluster) stop() {
	ps := c.procs()
	for _, p := range ps {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range ps {
		select {
		case <-p.exited:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
		p.log.Close()
	}
}

// hwmMiB sums the peak resident set (VmHWM) of the server processes.
func (c *cluster) hwmMiB() (float64, error) {
	var kb float64
	for _, p := range c.procs() {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		found := false
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				n, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err != nil {
					f.Close()
					return 0, fmt.Errorf("%s: VmHWM %q: %w", p.name, v, err)
				}
				kb += n
				found = true
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
		}
	}
	return kb / 1024, nil
}

// diskBytes sums the sizes of the files under the cluster's data and
// cold directories.
func (c *cluster) diskBytes() (int64, error) {
	var total int64
	for _, d := range c.data {
		err := filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.Type().IsRegular() {
				info, err := e.Info()
				if err != nil {
					return err
				}
				total += info.Size()
			}
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return 0, err
		}
	}
	return total, nil
}

// scrape fetches and parses the /metrics text of every process: the nodes'
// series summed, and the router's.
func (c *cluster) scrape() (nodes, router series, err error) {
	nodes = series{}
	for _, p := range c.nodes {
		s, err := fetchSeries(p.url)
		if err != nil {
			return nil, nil, err
		}
		nodes.add(s)
	}
	router = series{}
	if c.router != nil {
		if router, err = fetchSeries(c.router.url); err != nil {
			return nil, nil, err
		}
	}
	return nodes, router, nil
}

func fetchSeries(url string) (series, error) {
	resp, err := adminClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	return parseSeries(resp.Body)
}

// adminClient carries set-up, scrapes and checks. It keeps no idle
// connections, so during the timed phases only the load's own
// connections are open.
var adminClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// post sends a JSON body and returns the response body; any status other
// than want is an error.
func post(url string, body []byte, want int) ([]byte, error) {
	resp, err := adminClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}
