package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostShape is recorded with every run so that two result sets can be
// checked for coming from comparable machines.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	StealTicks int64  `json:"steal_ticks"` // over the whole run
}

func newHostShape() *hostShape {
	return &hostShape{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks reads the aggregate steal column of /proc/stat (the eighth
// value of the "cpu" line), or -1 where it is unavailable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// vmHWMMB returns the peak resident set size of process pid ("self" for
// this process) in MB, from VmHWM in /proc/<pid>/status.
func vmHWMMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// stealClock samples the host's cumulative steal ticks every 50 ms until
// stopped, so that any span of the run can be given its steal rate.
type stealClock struct {
	mu    sync.Mutex
	at    []time.Time // trikcheck:guardedby mu
	ticks []int64     // trikcheck:guardedby mu
	stop  chan struct{}
	done  chan struct{}
}

func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	v := stealTicks()
	c.mu.Lock()
	c.at = append(c.at, time.Now())
	c.ticks = append(c.ticks, v)
	c.mu.Unlock()
}

// close stops the sampler, waits for it, and returns the ticks accrued
// since it started.
func (c *stealClock) close() int64 {
	close(c.stop)
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks[len(c.ticks)-1] - c.ticks[0]
}

// rate returns the steal ticks per second accrued between the samples
// that bracket [a, b].
func (c *stealClock) rate(a, b time.Time) float64 {
	c.mu.Lock()
	at, ticks := c.at, c.ticks
	c.mu.Unlock()
	// The sampler only appends, so the prefix read here never changes.
	i := sort.Search(len(at), func(i int) bool { return at[i].After(a) }) - 1
	j := sort.Search(len(at), func(j int) bool { return !at[j].Before(b) })
	i = max(i, 0)
	j = min(j, len(at)-1)
	if j <= i {
		return 0
	}
	return float64(ticks[j]-ticks[i]) / at[j].Sub(at[i]).Seconds()
}
