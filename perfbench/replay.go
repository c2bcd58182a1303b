package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/share"
	"repro/internal/stats"
)

// step is one replayed request's layer timings.
type step struct {
	bind, runContext, digest time.Duration
	// untraced is RunContext on the untraced twin session.
	untraced time.Duration
	// Spans of the program's tracer inside RunContext.
	optimize, phase1, phase2, execRun time.Duration
	// ops is operator self time (partition tasks summed) by kind group.
	ops  map[string]time.Duration
	rows int64
}

// opGroups maps executor operator span names to the per-layer
// operator groups the benchmark reports.
var opGroups = map[string]string{
	"PhysExtract":       "extract",
	"Repartition":       "repartition",
	"HashAgg":           "agg",
	"StreamAgg":         "agg",
	"Sort":              "sort",
	"HashJoin":          "join",
	"SortMergeJoin":     "join",
	"Spool":             "spool",
	"spool-materialize": "spool",
}

// coordinated are the span names whose work runs on the coordinator,
// not in partition tasks, with exactly one input span right after them:
// exchanges to one machine or to all, and spool materialization (which
// writes the artifact once its input is done).
var coordinated = map[string]bool{"Repartition": true, "spool-materialize": true}

// taskSpans are the executor's partition-task span names.
var taskSpans = map[string]bool{"part": true, "merge": true, "send": true, "recv": true}

// replay sends the requests of samples, in completion order, through
// one client on a traced session over a fresh copy of the inputs,
// after the stream's warm-up. The benchmark times logical.BuildSource,
// Session.RunContext and eventlog.DigestOutputs itself; the session's
// obs.Tracer splits RunContext into optimizer and executor spans.
// Each request also runs, just before, on an untraced twin session
// over its own copy of the inputs: the difference between the two
// RunContext medians is the tracing overhead.
func replay(s *stream, samples []sample) ([]step, error) {
	tr := obs.NewTracer()
	// The tracer's epoch precedes this one, so a span that starts at
	// tracer time t started at or after epoch time t.
	epoch := time.Now()
	sess, cat, err := replaySession(s, tr)
	if err != nil {
		return nil, err
	}
	twin, _, err := replaySession(s, nil)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	steps := make([]step, len(samples))
	starts := make([]time.Duration, len(samples))
	for i, sm := range samples {
		u0 := time.Now()
		if _, err := twin.RunContext(ctx, sm.req.script, share.RunOpts{Tenant: sm.tenant}); err != nil {
			return nil, fmt.Errorf("replay %s: %w", sm.req.name, err)
		}
		untraced := time.Since(u0)
		t0 := time.Now()
		if _, err := logical.BuildSource(sm.req.script, cat); err != nil {
			return nil, fmt.Errorf("replay bind %s: %w", sm.req.name, err)
		}
		t1 := time.Now()
		rep, err := sess.RunContext(ctx, sm.req.script, share.RunOpts{Tenant: sm.tenant})
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", sm.req.name, err)
		}
		t2 := time.Now()
		eventlog.DigestOutputs(rep.Outputs)
		t3 := time.Now()
		starts[i] = t1.Sub(epoch)
		steps[i] = step{
			bind: t1.Sub(t0), runContext: t2.Sub(t1), digest: t3.Sub(t2), untraced: untraced,
			ops: map[string]time.Duration{}, rows: rep.Metrics.RowsProcessed,
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}
	if err := attribute(buf.Bytes(), starts, steps); err != nil {
		return nil, err
	}
	return steps, nil
}

// replaySession starts a session over a fresh copy of s's inputs,
// traced by tr (nil = untraced), and sends it the stream's warm-up.
func replaySession(s *stream, tr *obs.Tracer) (*share.Session, *stats.Catalog, error) {
	fs, cat := s.load()
	sess, err := share.NewSession(share.Config{
		Catalog:    cat,
		FS:         fs,
		Machines:   machines,
		Workers:    runtime.GOMAXPROCS(0),
		CacheBytes: s.cacheBytes,
		Tracer:     tr,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("replay session: %w", err)
	}
	for _, req := range s.warmup {
		if _, err := sess.RunContext(context.Background(), req.script, share.RunOpts{Tenant: "warmup"}); err != nil {
			return nil, nil, fmt.Errorf("replay warm-up %s: %w", req.name, err)
		}
	}
	return sess, cat, nil
}

// traceEvent is the part of a Chrome trace_event the benchmark reads.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Tid  int     `json:"tid"`
}

// attribute assigns the exported spans to the replayed requests. Each
// root span (one track) belongs to the last request whose RunContext
// started at or before it. Within a track, spans come in depth-first
// order and an operator's partition tasks start after its inputs are
// done, so a task belongs to the nearest preceding operator span whose
// interval contains it. An operator's self time is the sum of its
// tasks, plus, for the coordinated spans, the span minus its input's.
func attribute(data []byte, starts []time.Duration, steps []step) error {
	var f struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("parse trace: %w", err)
	}
	tracks := map[int][]traceEvent{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			tracks[ev.Tid] = append(tracks[ev.Tid], ev)
		}
	}
	us := func(v float64) time.Duration { return time.Duration(v * 1e3) }
	// eps absorbs float rounding of the exported microsecond times.
	const eps = 1e-3
	for _, evs := range tracks {
		root := evs[0]
		k := sort.Search(len(starts), func(i int) bool { return starts[i] > us(root.Ts) }) - 1
		if k < 0 {
			continue // a warm-up request
		}
		st := &steps[k]
		switch {
		case root.Cat == "opt" && root.Name == "optimize":
			st.optimize += us(root.Dur)
			for _, ev := range evs[1:] {
				switch ev.Name {
				case "phase1":
					st.phase1 += us(ev.Dur)
				case "phase2":
					st.phase2 += us(ev.Dur)
				}
			}
		case root.Cat == "exec" && root.Name == "run":
			st.execRun += us(root.Dur)
			var opIdx []int
			tasks := map[int]bool{}
			for i, ev := range evs {
				if !taskSpans[ev.Name] {
					opIdx = append(opIdx, i)
					continue
				}
				for j := len(opIdx) - 1; j >= 0; j-- {
					op := evs[opIdx[j]]
					if op.Ts <= ev.Ts+eps && ev.Ts+ev.Dur <= op.Ts+op.Dur+eps {
						if g, ok := opGroups[op.Name]; ok {
							st.ops[g] += us(ev.Dur)
						}
						tasks[opIdx[j]] = true
						break
					}
				}
			}
			for _, i := range opIdx {
				op := evs[i]
				if !coordinated[op.Name] || tasks[i] || i+1 >= len(evs) {
					continue
				}
				if in := evs[i+1]; !taskSpans[in.Name] && in.Ts+in.Dur <= op.Ts+op.Dur+eps {
					st.ops[opGroups[op.Name]] += us(op.Dur - in.Dur)
				}
			}
		}
	}
	return nil
}
