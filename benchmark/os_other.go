//go:build !linux

package main

import (
	"errors"
	"time"
)

// sleepUntil falls back to the runtime's timers, which are coarser
// than the nanosleep the reference platform uses: open-loop lateness
// reads higher here.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// peakRSSMB has no portable source; peak_rss_mb is left out of the
// result on this platform.
func peakRSSMB() (float64, error) { return 0, errors.ErrUnsupported }
