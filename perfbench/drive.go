package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/serve"
)

// Service configuration: cmd/scoped's defaults.
const (
	machines = 8
	window   = 10 * time.Millisecond
)

// sample is what one client observed for one request. The outputs
// themselves are not kept (holding every response would dominate the
// heap being measured); the service's own event carries their digests.
type sample struct {
	req     request
	tenant  string
	latency time.Duration
	// end is when the request completed, from the start of the phase.
	end time.Duration
	err error
	// event is the service's log record of this request.
	event eventlog.Event
	// metrics is the RunReport's metered execution work.
	metrics exec.Metrics
	// ordered keeps the ORDER BY outputs for the order check.
	ordered map[string]*exec.Table
}

// run is the untraced closed-loop measurement of one stream.
type run struct {
	samples []sample
	// elapsed spans the first submission to the last completion.
	elapsed time.Duration
	// cpu is process user+system time and allocBytes Go heap bytes
	// allocated over the timed phase. peakHeap is the heap in use that
	// only 1% of the samples taken every 5 ms exceed: the sawtooth's
	// top, without the single highest garbage-collection cycle.
	cpu        time.Duration
	allocBytes uint64
	peakHeap   float64
	// reg is the registry delta over the timed phase.
	reg obs.Snapshot
	srv *serve.Server
}

// setUp builds a ready server for s: inputs generated and loaded,
// catalog registered, server started, warm-up pass submitted.
func setUp(s *stream) (*serve.Server, error) {
	fs, cat := s.load()
	srv, err := serve.New(serve.Config{
		Catalog:     cat,
		FS:          fs,
		Machines:    machines,
		Workers:     runtime.GOMAXPROCS(0),
		CacheBytes:  s.cacheBytes,
		Window:      window,
		QueueDepth:  serve.DefaultQueueDepth,
		FailureDump: os.Stderr,
	})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	for _, req := range s.warmup {
		if _, err := srv.Submit(context.Background(), "warmup", req.script); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", req.name, err)
		}
	}
	return srv, nil
}

// drive sends every tenant's requests through srv in a closed loop
// until the timed phase ends, then waits for the requests in flight.
func drive(srv *serve.Server, s *stream, seconds int) (*run, error) {
	runtime.GC()
	regBefore := srv.Registry().Snapshot()
	cpuBefore, err := cpuTime()
	if err != nil {
		return nil, err
	}
	allocBefore := readMetric("/gc/heap/allocs:bytes")

	stopSampler := make(chan struct{})
	heap := make(chan []float64)
	go func() {
		var samples []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			samples = append(samples, float64(readMetric("/memory/classes/heap/objects:bytes")))
			select {
			case <-tick.C:
			case <-stopSampler:
				heap <- samples
				return
			}
		}
	}()

	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	per := make([][]sample, len(s.tenants))
	ranOut := make([]bool, len(s.tenants))
	var wg sync.WaitGroup
	for t, next := range s.tenants {
		wg.Add(1)
		go func(t int, next tenant) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%d", t)
			for i := 0; time.Now().Before(deadline); i++ {
				req, ok := next(i)
				if !ok {
					ranOut[t] = true
					return
				}
				sm := submit(srv, name, req)
				sm.end = time.Since(start)
				per[t] = append(per[t], sm)
			}
		}(t, next)
	}
	wg.Wait()
	r := &run{elapsed: time.Since(start), srv: srv}
	close(stopSampler)
	r.peakHeap = quantile(<-heap, 0.99)
	for t, out := range ranOut {
		if out {
			// A shorter timed phase would be compared with full ones.
			return nil, fmt.Errorf("tenant-%d sent all its %d requests before the timed phase ended; generate more", t, len(per[t]))
		}
	}
	cpuAfter, err := cpuTime()
	if err != nil {
		return nil, err
	}
	r.cpu = cpuAfter - cpuBefore
	r.allocBytes = readMetric("/gc/heap/allocs:bytes") - allocBefore
	r.reg = delta(srv.Registry().Snapshot(), regBefore)
	for _, ss := range per {
		r.samples = append(r.samples, ss...)
	}
	return r, nil
}

// submit sends one request and records what the client saw. The
// request's event is already in the log when Submit returns, and a
// closed-loop tenant has one request in flight, so the tenant's most
// recent event is this request's.
func submit(srv *serve.Server, tenant string, req request) sample {
	t0 := time.Now()
	rep, err := srv.Submit(context.Background(), tenant, req.script)
	sm := sample{req: req, tenant: tenant, latency: time.Since(t0), err: err}
	if err != nil {
		return sm
	}
	if evs := srv.EventLog().Recent(tenant, 1); len(evs) == 1 {
		sm.event = evs[0]
	}
	sm.metrics = rep.Metrics
	for path := range req.order {
		if sm.ordered == nil {
			sm.ordered = map[string]*exec.Table{}
		}
		sm.ordered[path] = rep.Outputs[path]
	}
	return sm
}

// delta returns the counters that moved from before to after.
func delta(after, before obs.Snapshot) obs.Snapshot {
	d := obs.NewSnapshot()
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	return d
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
