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
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"samr/internal/server"
)

// callers is the load generator's concurrency: at most nproc (2 on the
// reference box) callers and connections, so the generator never needs
// more cores than the machine has left next to samrd.
const callers = 2

// daemon is one samrd process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

// startDaemon launches samrd with extra flags on a free loopback port
// and waits until /healthz answers.
func startDaemon(ctx context.Context, e *env, name string, flags ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logPath := filepath.Join(e.dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.samrd, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If this process dies without stopping samrd (a crash), the kernel
	// kills samrd too, so no daemon outlives a run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start samrd: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     callers,
			MaxIdleConnsPerHost: callers,
			DisableCompression:  true,
		}},
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("samrd did not become ready (log %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates samrd and waits for it to exit.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already-exited is fine
	done := make(chan struct{})
	go func() {
		d.cmd.Wait() //nolint:errcheck // exit status of a terminated daemon is irrelevant
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-done
	}
	d.cmd.Process = nil
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// call sends one request and returns status, body and latency.
func (d *daemon) call(ctx context.Context, method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

// post sends a JSON POST and decodes a 200 reply into v (if non-nil).
func (d *daemon) post(ctx context.Context, path string, body []byte, v any) error {
	code, out, _, err := d.call(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, code, bytes.TrimSpace(out))
	}
	if v != nil {
		return json.Unmarshal(out, v)
	}
	return nil
}

func (d *daemon) stats(ctx context.Context) (server.StatsResponse, error) {
	var st server.StatsResponse
	code, out, _, err := d.call(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, errors.New("GET /v1/stats: status " + strconv.Itoa(code))
	}
	return st, json.Unmarshal(out, &st)
}

// cacheDelta is the partition cache's activity between two stats reads.
type cacheDelta struct {
	hits, misses, shared, tier uint64
}

func deltaOf(a, b server.StatsResponse) cacheDelta {
	return cacheDelta{
		hits:   b.Cache.Hits - a.Cache.Hits,
		misses: b.Cache.Misses - a.Cache.Misses,
		shared: b.Cache.Shared - a.Cache.Shared,
		tier:   b.Cache.Tier - a.Cache.Tier,
	}
}

func (c cacheDelta) plus(o cacheDelta) cacheDelta {
	return cacheDelta{c.hits + o.hits, c.misses + o.misses, c.shared + o.shared, c.tier + o.tier}
}

func (c cacheDelta) lookups() uint64 { return c.hits + c.misses + c.shared + c.tier }
