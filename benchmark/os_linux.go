package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread in nanosleep(2) until t. Go's
// own timers wake through the network poller, whose timeout has
// millisecond resolution: at 1000 ops/s that lateness would be most of
// the latency the open loop reports.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
