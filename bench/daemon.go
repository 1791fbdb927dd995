package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// daemonWait bounds each wait on a daemon: for its listen address, for
// /readyz, and for its exit after SIGTERM.
const daemonWait = 30 * time.Second

// daemon is one subserve or subgate process. It listens on 127.0.0.1:0 and
// the bound address is read from its log, which is kept in the run
// directory.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	url     string        // http://127.0.0.1:port
	done    chan struct{} // closed once the process has exited and been reaped
	err     error         // the exit status, valid after done
	stopped atomic.Bool
}

// listenRE finds the bound address in a daemon's start-up log line.
var listenRE = regexp.MustCompile(`(http://127\.0\.0\.1:[0-9]+)[^0-9]`)

// logWriter copies a daemon's output into its log file and passes on the
// first listen address it prints. exec calls Write from one goroutine.
type logWriter struct {
	f     *os.File
	buf   []byte
	found chan<- string
}

func (w *logWriter) Write(p []byte) (int, error) {
	if w.found != nil {
		w.buf = append(w.buf, p...)
		if m := listenRE.FindSubmatch(w.buf); m != nil {
			w.found <- string(m[1])
			w.found, w.buf = nil, nil
		}
	}
	return w.f.Write(p)
}

// startDaemon runs bin with args and returns once it has printed its listen
// address. If the benchmark dies, the kernel kills the daemon too.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	found := make(chan string, 1)
	lw := &logWriter{f: f, found: found}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lw, lw
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, err
	}
	d := &daemon{name: filepath.Base(bin), cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		f.Close()
		close(d.done)
	}()
	select {
	case d.url = <-found:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening (%v); log: %s", d.name, d.err, logTail(logPath))
	case <-time.After(daemonWait):
		d.stop()
		return nil, fmt.Errorf("%s printed no listen address in %v; log: %s", d.name, daemonWait, logTail(logPath))
	}
}

// logTail returns the last line of a daemon log for error messages.
func logTail(path string) string {
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	return lines[len(lines)-1]
}

// alive reports an error if the daemon has exited.
func (d *daemon) alive() error {
	select {
	case <-d.done:
		return fmt.Errorf("%s at %s exited early: %v", d.name, d.url, d.err)
	default:
		return nil
	}
}

// stop sends SIGTERM, waits for the drain and reaps the process, killing it
// if it has not exited in time. It is safe to call more than once; it
// reports an error if the daemon had already exited on its own or did not
// exit cleanly.
func (d *daemon) stop() error {
	if d.stopped.Swap(true) {
		<-d.done
		return nil
	}
	if err := d.alive(); err != nil {
		return err
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exit racing the signal shows in d.err
	select {
	case <-d.done:
	case <-time.After(daemonWait):
		_ = d.cmd.Process.Kill() // reaped below either way
		<-d.done
		return fmt.Errorf("%s did not exit within %v of SIGTERM; killed", d.name, daemonWait)
	}
	if d.err != nil {
		return fmt.Errorf("%s: %w", d.name, d.err)
	}
	return nil
}

// waitReady polls the daemon's /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(daemonWait)
	for {
		if err := d.alive(); err != nil {
			return err
		}
		code, _, err := httpDo(ctx, controlClient, http.MethodGet, d.url+"/readyz", "", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s at %s not ready after %v (status %d, %v)", d.name, d.url, daemonWait, code, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// controlClient carries every request of the benchmark that is not load:
// readiness polls, model loads and /metrics scrapes.
var controlClient = &http.Client{Timeout: daemonWait}

// httpDo sends one request with client and returns the status and body.
func httpDo(ctx context.Context, client *http.Client, method, url, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
