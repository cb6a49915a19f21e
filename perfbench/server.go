package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one ringserve process on a loopback port, run with its
// default flags apart from -addr.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	flags  []string
	exited chan struct{}
	// log collects the server's output. The exec package writes it from its
	// own goroutine, so it is read only once exited is closed.
	log bytes.Buffer
	err error // the process's exit status, once exited is closed
}

// startServer starts bin and returns once /healthz answers ok.
func startServer(ctx context.Context, bin string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p := &serverProc{
		base:   "http://" + addr,
		flags:  []string{"-addr", addr},
		exited: make(chan struct{}),
	}
	p.cmd = exec.Command(bin, p.flags...)
	p.cmd.Stdout = &p.log
	p.cmd.Stderr = &p.log
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ringserve: %w", err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	probe := newConn(p.base)
	defer probe.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-p.exited:
			return nil, fmt.Errorf("ringserve exited before serving: %v\n%s", p.err, p.log.String())
		default:
		}
		if h, err := probe.getHealthz(ctx); err == nil && h.Status == "ok" {
			return p, nil
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("ringserve did not answer /healthz within 30s\n%s", p.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM, waits for the graceful drain and kills the process if
// it outlives the wait. It returns once the process has exited.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// cpuTime is the process's user plus system CPU time from /proc/<pid>/stat.
func (p *serverProc) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read ringserve cpu time: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc stat field %q: %w", f, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 on every architecture Go supports.
const clockTicks = 100

// peakRSS is the process's VmHWM in MiB.
func (p *serverProc) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read ringserve status: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// healthz is the subset of GET /healthz the benchmark reads.
type healthz struct {
	Status          string `json:"status"`
	Hits            uint64 `json:"cacheHits"`
	Misses          uint64 `json:"cacheMisses"`
	Evictions       uint64 `json:"cacheEvictions"`
	PrefixHits      uint64 `json:"prefixHits"`
	PrefixPartial   uint64 `json:"prefixPartialHits"`
	PrefixMisses    uint64 `json:"prefixMisses"`
	PrefixEvictions uint64 `json:"prefixEvictions"`
	PrefixBytes     int64  `json:"prefixBytes"`
}

// cacheDelta is what the memo and prefix caches did between two probes.
type cacheDelta struct {
	MemoHitRatio    float64 `json:"memo_hit_ratio"`
	MemoEvictions   uint64  `json:"memo_evictions"`
	PrefixHitRatio  float64 `json:"prefix_hit_ratio"`
	PrefixBytes     int64   `json:"prefix_bytes"`
	PrefixEvictions uint64  `json:"prefix_evictions"`
}

func delta(before, after healthz) cacheDelta {
	ratio := func(hits, total uint64) float64 {
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	ph := after.PrefixHits - before.PrefixHits + after.PrefixPartial - before.PrefixPartial
	pm := after.PrefixMisses - before.PrefixMisses
	return cacheDelta{
		MemoHitRatio:    ratio(hits, hits+misses),
		MemoEvictions:   after.Evictions - before.Evictions,
		PrefixHitRatio:  ratio(ph, ph+pm),
		PrefixBytes:     after.PrefixBytes,
		PrefixEvictions: after.PrefixEvictions - before.PrefixEvictions,
	}
}

// conn is one keep-alive HTTP connection to the server under test.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// getHealthz reads the server's counters.
func (c *conn) getHealthz(ctx context.Context) (healthz, error) {
	var h healthz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return h, fmt.Errorf("get /healthz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("decode /healthz: %w", err)
	}
	return h, nil
}

// post sends one request and returns its status and body.
func (c *conn) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
