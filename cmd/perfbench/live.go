package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxConns is the driver's in-flight connection limit: the host's two
// cores, so the client never has more requests outstanding than the
// server has cores to serve them.
const maxConns = 2

// serverProc is one running `trikcore serve` child process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	stderr  bytes.Buffer
	exited  chan struct{}
	exitErr error // set before exited closes
	client  *http.Client
}

// startServer launches `trikcore serve` with the given extra flags at
// default settings otherwise, and returns once /healthz answers, with
// the time that took.
func startServer(bin string, args ...string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &serverProc{base: "http://" + addr, exited: make(chan struct{}), client: newClient(maxConns)}
	s.cmd = exec.Command(bin, append([]string{"serve", "-addr", addr, "-quiet"}, args...)...)
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the driver, even if the driver is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	go func() {
		s.exitErr = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			err = drainClose(resp.Body)
			if err == nil && resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("server exited during start (%v): %s", s.exitErr, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("server did not become ready within 60s")
		}
	}
}

// peakRSSMB returns the server's VmHWM.
func (s *serverProc) peakRSSMB() (float64, error) {
	return vmHWMMB(strconv.Itoa(s.cmd.Process.Pid))
}

// stop asks the server to shut down and waits until it has exited.
func (s *serverProc) stop() {
	s.client.CloseIdleConnections()
	// Signal and Kill fail only when the process has already exited,
	// which exited reports either way.
	err := s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		err = s.cmd.Process.Kill()
		<-s.exited
	}
	_ = err
}

// drainClose reads body to the end and closes it.
func drainClose(body io.ReadCloser) error {
	_, err := io.Copy(io.Discard, body)
	return errors.Join(err, body.Close())
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// reply is one completed request.
type reply struct {
	status  int
	version uint64 // X-Trikcore-Version, 0 if absent
	body    []byte
	err     error
}

func do(c *http.Client, method, url string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	v, _ := strconv.ParseUint(resp.Header.Get("X-Trikcore-Version"), 10, 64)
	return reply{status: resp.StatusCode, version: v, body: data, err: err}
}

func (o op) method() string {
	if o.kind == opWrite {
		return http.MethodPost
	}
	return http.MethodGet
}

// outcome is one operation's timing as the client saw it.
type outcome struct {
	latency time.Duration // completion minus due time
	late    time.Duration // send time minus due time
	done    time.Time
	reply   reply
}

// openLoop sends ops on their schedule from start, with at most conns in
// flight, and returns one outcome per op. An op whose slot is taken by a
// slow predecessor is sent late; its latency still counts from its due
// time, so stalls show in every request they delay. Writes are issued in
// schedule order: a write waits for the previous write's reply, so two
// toggles of the same edges can never be applied out of order.
func openLoop(c *http.Client, base string, ops []op, conns int, start time.Time) []outcome {
	out := make([]outcome, len(ops))
	writeDone := make([]chan struct{}, len(ops))
	prevWrite := make([]chan struct{}, len(ops))
	var last chan struct{}
	for i, o := range ops {
		if o.kind == opWrite {
			prevWrite[i] = last
			writeDone[i] = make(chan struct{})
			last = writeDone[i]
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				due := start.Add(o.due)
				waitUntil(due)
				if prevWrite[i] != nil {
					<-prevWrite[i]
				}
				sent := time.Now()
				r := do(c, o.method(), base+o.path, o.body)
				done := time.Now()
				if writeDone[i] != nil {
					close(writeDone[i])
				}
				out[i] = outcome{latency: done.Sub(due), late: sent.Sub(due), done: done, reply: r}
			}
		}()
	}
	wg.Wait()
	return out
}

// waitUntil returns at t. The runtime's timers wake up to a millisecond
// late on Linux, which would put the generator's own jitter into every
// open-loop latency, so it sleeps in the kernel to just short of t and
// spins the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 150*time.Microsecond; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		err := syscall.Nanosleep(&ts, nil)
		_ = err // an interrupted sleep ends early; the spin covers it
	}
	for time.Now().Before(t) {
	}
}

// sseEvent is one change-feed event as the subscriber received it.
type sseEvent struct {
	id      uint64
	kind    string
	version uint64
	at      time.Time
}

// subscription is a live SSE stream on one graph space.
type subscription struct {
	cancel  context.CancelFunc
	closing atomic.Bool
	done    chan struct{}
	mu      sync.Mutex
	events  []sseEvent // trikcheck:guardedby mu
	// err is set when the stream failed other than by close.
	err error // trikcheck:guardedby mu
}

// subscribe opens base+"/subscribe" on its own connection and returns
// once the server's handshake comment has arrived, i.e. once the feed is
// armed and every later publication will reach this stream.
func subscribe(base string) (*subscription, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/subscribe", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := newClient(1).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		return nil, errors.Join(fmt.Errorf("subscribe: status %d", resp.StatusCode), resp.Body.Close())
	}
	rd := bufio.NewReader(resp.Body)
	if line, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		cancel()
		return nil, errors.Join(fmt.Errorf("subscribe: no handshake (%q, %v)", line, err), resp.Body.Close())
	}
	sub := &subscription{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		defer resp.Body.Close()
		sub.read(rd)
	}()
	return sub, nil
}

func (sub *subscription) read(rd *bufio.Reader) {
	var ev sseEvent
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			if !sub.closing.Load() {
				sub.mu.Lock()
				sub.err = err
				sub.mu.Unlock()
			}
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.id != 0 {
				ev.at = time.Now()
				sub.mu.Lock()
				sub.events = append(sub.events, ev)
				sub.mu.Unlock()
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.ParseUint(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.kind = line[7:]
		case strings.HasPrefix(line, "data: "):
			var p struct {
				Version uint64 `json:"version"`
			}
			if json.Unmarshal([]byte(line[6:]), &p) == nil {
				ev.version = p.Version
			}
		}
	}
}

// waitVersion blocks until an event with at least version v arrived, the
// stream ended, or the timeout passed.
func (sub *subscription) waitVersion(v uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		sub.mu.Lock()
		n := len(sub.events)
		ok := n > 0 && sub.events[n-1].version >= v
		sub.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-sub.done:
			return false
		case <-time.After(time.Millisecond):
		}
	}
	return false
}

// close ends the stream and returns what it received and any read error
// that came before the close.
func (sub *subscription) close() ([]sseEvent, error) {
	sub.closing.Store(true)
	sub.cancel()
	<-sub.done
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.events, sub.err
}
