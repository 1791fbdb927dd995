package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// rssInterval is how often an rssSampler reads the resident set sizes.
const rssInterval = 50 * time.Millisecond

// selfCPU returns the CPU time this process has used so far, summed over
// its threads.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the CPU time the processes have used so far, summed over
// their threads: the first field of each /proc/<pid>/task/<tid>/schedstat,
// in nanoseconds.
func procCPU(pids ...int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range pids {
		tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
		if err != nil || len(tasks) == 0 {
			return 0, fmt.Errorf("no schedstat for pid %d", pid)
		}
		for _, path := range tasks {
			data, err := os.ReadFile(path)
			if err != nil {
				return 0, err
			}
			f := strings.Fields(string(data))
			if len(f) == 0 {
				return 0, fmt.Errorf("%s: empty", path)
			}
			ns, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			total += time.Duration(ns)
		}
	}
	return total, nil
}

// statusMB reads one "Key: <n> kB" line of /proc/<pid>/status (pid 0: this
// process) and returns it in MB of 2^20 bytes.
func statusMB(pid int, key string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == key+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// rssSampler samples the summed resident set size (VmRSS) of some processes
// every rssInterval until stopped. The mean over a phase is steadier than
// the peak, which depends on where garbage collections happen to fall.
type rssSampler struct {
	pids []int
	quit chan struct{}
	done chan struct{}
	once sync.Once

	sum  float64
	n    int
	errs []error
}

func sampleRSS(pids ...int) *rssSampler {
	s := &rssSampler{pids: pids, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	var total float64
	for _, pid := range s.pids {
		mb, err := statusMB(pid, "VmRSS")
		if err != nil {
			s.errs = append(s.errs, err)
			return
		}
		total += mb
	}
	s.sum += total
	s.n++
}

// stop ends the sampling, waiting for the sampler to exit, and returns the
// mean summed RSS and the summed peak RSS (VmHWM) of the processes. It may
// be called more than once.
func (s *rssSampler) stop() (mean, peak float64, err error) {
	s.once.Do(func() {
		close(s.quit)
		<-s.done
	})
	for _, pid := range s.pids {
		mb, err := statusMB(pid, "VmHWM")
		if err != nil {
			return 0, 0, err
		}
		peak += mb
	}
	if err := errors.Join(s.errs...); err != nil {
		return 0, 0, err
	}
	return s.sum / float64(s.n), peak, nil
}
