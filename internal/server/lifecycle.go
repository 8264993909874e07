package server

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
)

// SignalContext returns a context cancelled on SIGINT/SIGTERM (or the
// given signals). After the first signal cancels the context the
// handler unregisters itself, so a second signal takes the default
// path and kills a process stuck in its drain. The returned cancel
// releases the signal handler early. Shared by deepsea-serve and
// deepsea-sim so both binaries shut down through the same path.
func SignalContext(parent context.Context, sigs ...os.Signal) (context.Context, context.CancelFunc) {
	if len(sigs) == 0 {
		sigs = []os.Signal{os.Interrupt, syscall.SIGTERM}
	}
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	go func() {
		select {
		case <-ch:
			signal.Stop(ch)
			cancel()
		case <-ctx.Done():
			signal.Stop(ch)
		}
	}()
	return ctx, cancel
}

// ParseBytes parses a size flag: a non-negative number of bytes, or of
// megabytes or gigabytes with an MB or GB suffix (any case, fractions
// allowed: "1.5GB"). Shared by deepsea-serve and deepsea-sim.
func ParseBytes(s string) (int64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	mult := float64(1)
	switch {
	case strings.HasSuffix(t, "GB"):
		mult, t = 1<<30, strings.TrimSuffix(t, "GB")
	case strings.HasSuffix(t, "MB"):
		mult, t = 1<<20, strings.TrimSuffix(t, "MB")
	}
	n, err := strconv.ParseFloat(t, 64)
	if err != nil || !(n >= 0) || n*mult >= math.MaxInt64 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return int64(n * mult), nil
}
