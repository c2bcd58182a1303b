// Command perfbench drives the multi-tenant query service in-process
// with one of three traffic mixes and prints its end-to-end metrics,
// or, with -trace 1, the per-layer metrics of a traced replay. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload warm-repeat --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/serve"
)

// A run sets the service up at least minSetups times, and more while
// the set-ups have taken less than setupBudget, up to maxSetups;
// setup_s is the median, and the last set-up serves the timed phase.
// Short set-ups repeat more, so their median is as steady as a long
// one's.
const (
	minSetups   = 7
	maxSetups   = 41
	setupBudget = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "warm-repeat, cold-scan or cold-plan")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = print the per-layer metrics of a traced replay")
	flag.Parse()
	gen, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload warm-repeat|cold-scan|cold-plan --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := runWorkload(*workload, gen(*seed, *seconds), *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runWorkload runs one workload: set-up, timed closed loop, output checks,
// and with traced set the traced replay.
func runWorkload(name string, s *stream, seconds int, traced bool) (*result, error) {
	var srv *serve.Server
	var setupTimes []float64
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if srv != nil {
			if err := srv.Shutdown(context.Background()); err != nil {
				return nil, err
			}
			srv = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if srv, err = setUp(s); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		setupTimes = append(setupTimes, d.Seconds())
	}
	r, err := drive(srv, s, seconds)
	if err != nil {
		return nil, err
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}

	// failed counts Submit errors and mismatches; every workload is
	// built so that no request fails, so any failure makes the run
	// incorrect.
	failed, msgs := check(s, r.samples)
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "FAIL", m)
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: len(r.samples),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	// The metrics count only the requests that completed: a failed
	// Submit's quick return must not read as speed.
	ok := okSamples(r.samples)
	if len(ok) == 0 {
		return nil, fmt.Errorf("%s: no request completed in %d s (%d attempted)", name, seconds, len(r.samples))
	}
	if !traced {
		endToEnd(res.Metrics, r, ok, median(setupTimes))
		return res, nil
	}
	steps, err := replay(s, ok)
	if err != nil {
		return nil, err
	}
	perLayer(res.Metrics, r, ok, steps)
	premise(name, res.Metrics, len(steps))
	return res, nil
}

// endToEnd fills the user-visible metrics of an untraced run from its
// completed requests ok.
func endToEnd(m map[string]metric, r *run, ok []sample, setup float64) {
	lat := make([]float64, 0, len(ok))
	var sim float64
	cluster := r.srv.Session().Options().Cluster
	for _, sm := range ok {
		lat = append(lat, ms(sm.latency))
		sim += sm.metrics.SimulatedSeconds(cluster) * 1e3
	}
	n := float64(len(ok))
	m["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	m["throughput_sps"] = metric{n / r.elapsed.Seconds(), "1/s"}
	m["cpu_ms_per_script"] = metric{ms(r.cpu) / n, "ms"}
	m["alloc_mb_per_script"] = metric{float64(r.allocBytes) / 1e6 / n, "MB"}
	m["peak_heap_mb"] = metric{r.peakHeap / 1e6, "MB"}
	m["sim_cluster_ms_per_script"] = metric{sim / n, "ms"}
	m["setup_s"] = metric{setup, "s"}
}

// perLayer fills the per-layer metrics: counts from the untraced run's
// registry and its completed requests' events and reports; times from
// the traced replay.
func perLayer(m map[string]metric, r *run, ok []sample, steps []step) {
	n := float64(len(ok))
	var wait []float64
	var folded, rows, net, disk, cacheRead float64
	for _, sm := range ok {
		wait = append(wait, ms(sm.latency)-float64(sm.event.LatencyUs)/1e3)
		if sm.event.Folded {
			folded++
		}
		rows += float64(sm.metrics.RowsProcessed)
		net += float64(sm.metrics.NetBytes)
		disk += float64(sm.metrics.DiskBytesRead + sm.metrics.DiskBytesWritten)
		cacheRead += float64(sm.metrics.CacheBytesRead)
	}
	c := r.reg.Counters
	m["serve.wait_ms"] = metric{quantile(wait, 0.5), "ms"}
	m["serve.folded_per_script"] = metric{folded / n, "count"}
	m["opt.phase1_tasks_per_script"] = metric{float64(c["opt.phase1_tasks"]) / n, "count"}
	m["opt.phase2_tasks_per_script"] = metric{float64(c["opt.phase2_tasks"]) / n, "count"}
	m["opt.rounds_per_script"] = metric{float64(c["opt.rounds"]) / n, "count"}
	m["opt.rounds_pruned_per_script"] = metric{float64(c["opt.rounds_pruned"]) / n, "count"}
	hits, misses := float64(c["share.cache_hits"]), float64(c["share.cache_misses"])
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m["share.hit_ratio"] = metric{ratio, "ratio"}
	m["share.admitted_mb_per_script"] = metric{float64(c["share.admitted_bytes"]) / 1e6 / n, "MB"}
	m["share.evictions_per_script"] = metric{float64(c["share.cache_evictions"]) / n, "count"}
	m["exec.rows_processed_per_script"] = metric{rows / n, "count"}
	m["exec.net_mb_per_script"] = metric{net / 1e6 / n, "MB"}
	m["exec.disk_mb_per_script"] = metric{disk / 1e6 / n, "MB"}
	m["exec.cache_read_mb_per_script"] = metric{cacheRead / 1e6 / n, "MB"}

	var tot step
	tot.ops = map[string]time.Duration{}
	var rc, untraced, latency []float64
	for _, st := range steps {
		tot.bind += st.bind
		tot.runContext += st.runContext
		tot.digest += st.digest
		tot.optimize += st.optimize
		tot.phase1 += st.phase1
		tot.phase2 += st.phase2
		tot.execRun += st.execRun
		tot.rows += st.rows
		for g, d := range st.ops {
			tot.ops[g] += d
		}
		rc = append(rc, ms(st.runContext))
		untraced = append(untraced, ms(st.untraced))
		latency = append(latency, ms(st.bind+st.runContext+st.digest))
	}
	k := float64(len(steps))
	perScript := func(d time.Duration) metric { return metric{ms(d) / k, "ms"} }
	m["logical.bind_ms_per_script"] = perScript(tot.bind)
	m["opt.optimize_ms_per_script"] = perScript(tot.optimize)
	m["opt.phase1_ms_per_script"] = perScript(tot.phase1)
	m["opt.phase2_ms_per_script"] = perScript(tot.phase2)
	m["share.self_ms_per_script"] = perScript(tot.runContext - tot.optimize - tot.execRun)
	m["exec.run_ms_per_script"] = perScript(tot.execRun)
	m["exec.rows_per_s"] = metric{float64(tot.rows) / tot.execRun.Seconds(), "rows/s"}
	for _, g := range []string{"extract", "repartition", "agg", "sort", "join", "spool"} {
		m["exec."+g+"_ms_per_script"] = perScript(tot.ops[g])
	}
	m["eventlog.digest_ms_per_script"] = perScript(tot.digest)
	m["trace.run_context_ms_per_script"] = perScript(tot.runContext)
	m["trace.latency_p50_ms"] = metric{quantile(latency, 0.5), "ms"}
	m["trace.overhead_ms"] = metric{quantile(rc, 0.5) - quantile(untraced, 0.5), "ms"}
}

// premise sets trace.premise_holds to 1 when the traced replay shows
// the workload's premise, and 0 when it does not: which layer holds
// most of RunContext, and how often the cache served shared work. It
// also says why on standard error. A premise that fails does not fail
// the run, since a large enough speed-up of one layer moves the shares
// legitimately; the metric shows it.
func premise(name string, m map[string]metric, replayed int) {
	rc := m["trace.run_context_ms_per_script"].Value
	phases := (m["opt.phase1_ms_per_script"].Value + m["opt.phase2_ms_per_script"].Value) / rc
	run := m["exec.run_ms_per_script"].Value / rc
	hit := m["share.hit_ratio"].Value
	ok := map[string]bool{
		"warm-repeat": phases > 0.5 && hit == 1,
		"cold-scan":   run > 0.5 && hit == 0,
		"cold-plan":   phases > 0.5 && hit == 0,
	}[name]
	verdict, holds := "holds", 1.0
	if !ok {
		verdict, holds = "does not hold", 0
	}
	m["trace.premise_holds"] = metric{holds, "bool"}
	fmt.Fprintf(os.Stderr, "premise %s %s: share of RunContext in opt phases %.3f, in exec run %.3f; hit ratio %.3f; %d requests replayed\n",
		name, verdict, phases, run, hit, replayed)
}

// okSamples returns the samples whose Submit succeeded, in completion
// order.
func okSamples(samples []sample) []sample {
	var out []sample
	for _, sm := range samples {
		if sm.err == nil {
			out = append(out, sm)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].end < out[j].end })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }
