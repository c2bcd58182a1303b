package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/obs/eventlog"
	"repro/internal/relop"
)

// testSeconds sizes the generated streams in the tests.
const testSeconds = 2

// requests returns up to n of each tenant's requests, in order.
func requests(s *stream, n int) [][]request {
	var out [][]request
	for _, next := range s.tenants {
		var reqs []request
		for i := 0; i < n; i++ {
			req, ok := next(i)
			if !ok {
				break
			}
			reqs = append(reqs, req)
		}
		out = append(out, reqs)
	}
	return out
}

// all is more requests than any test stream's list holds.
const all = 1 << 20

func TestSameSeedSameStream(t *testing.T) {
	for name, gen := range workloads {
		a, b := gen(7, testSeconds), gen(7, testSeconds)
		ra := requests(a, 100)
		if !reflect.DeepEqual(ra, requests(b, 100)) || !reflect.DeepEqual(a.warmup, b.warmup) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		// cold-plan's seed changes its inputs, not its script text.
		if c := gen(8, testSeconds); reflect.DeepEqual(ra, requests(c, 100)) && name != "cold-plan" {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
		fa, _ := a.load()
		fb, _ := b.load()
		if !reflect.DeepEqual(fa.Paths(), fb.Paths()) {
			t.Fatalf("%s: seed 7 loaded different input paths", name)
		}
		for _, p := range fa.Paths()[:1] {
			ta, _ := fa.Get(p)
			tb, _ := fb.Get(p)
			if !ta.Equal(tb) {
				t.Errorf("%s: seed 7 generated two different %s", name, p)
			}
		}
	}
}

// subexprs returns the fingerprint-plus-signature identities of a
// script's non-leaf subexpressions, the keys the cache and the
// service's folding use.
func subexprs(t *testing.T, m *memo.Memo) map[string]bool {
	t.Helper()
	fps := core.Fingerprints(m)
	sigs := core.CanonicalSignatures(m)
	out := map[string]bool{}
	for _, g := range m.Groups() {
		if len(g.Exprs) == 0 {
			continue
		}
		if _, leaf := g.Exprs[0].Op.(*relop.Extract); leaf {
			continue
		}
		out[fmt.Sprintf("%016x|%s", fps[g.ID], sigs[g.ID])] = true
	}
	return out
}

func TestColdStreamsNeverRepeatASubexpression(t *testing.T) {
	for _, name := range []string{"cold-scan", "cold-plan"} {
		s := workloads[name](3, testSeconds)
		_, cat := s.load()
		seen := map[string]string{}
		reqs := requests(s, all)[0]
		for _, req := range reqs {
			m, err := logical.BuildSource(req.script, cat)
			if err != nil {
				t.Fatalf("%s %s: %v", name, req.name, err)
			}
			for k := range subexprs(t, m) {
				if prev, ok := seen[k]; ok {
					t.Fatalf("%s: %s repeats a subexpression of %s", name, req.name, prev)
				}
				seen[k] = req.name
			}
		}
		if len(reqs) < 2 || len(seen) == 0 {
			t.Fatalf("%s: stream too small to test (%d requests)", name, len(reqs))
		}
	}
}

func TestWarmStreamRepeatsTheMicroScripts(t *testing.T) {
	s := workloads["warm-repeat"](3, testSeconds)
	if len(s.tenants) != 2 {
		t.Fatalf("warm-repeat has %d tenants, want 2", len(s.tenants))
	}
	// Rounds are drawn as a tenant reaches them, far past any list size.
	const rounds = 1000
	tenants := requests(s, rounds*len(warmScripts))
	for _, reqs := range tenants {
		for r := 0; r < rounds; r += rounds - 1 {
			count := map[string]int{}
			for _, req := range reqs[r*len(warmScripts) : (r+1)*len(warmScripts)] {
				count[req.name]++
			}
			if len(count) != len(s.warmup) || count["S2"] != 2 {
				t.Errorf("round %d %v is not one of each micro script with S2 twice", r, count)
			}
		}
	}
	if reflect.DeepEqual(tenants[0], tenants[1]) {
		t.Error("the two tenants send the same order")
	}
}

// TestDigestMatchesTheEventLog checks the benchmark's reference digest
// has the format of the service's event log, so the two compare.
func TestDigestMatchesTheEventLog(t *testing.T) {
	s := workloads["warm-repeat"](3, testSeconds)
	fs, cat := s.load()
	m, err := logical.BuildSource(warmScripts[0].script, cat)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := exec.Reference(m, fs)
	if err != nil {
		t.Fatal(err)
	}
	got, want := digest(outs), eventlog.DigestOutputs(outs)
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("digest %v, event log %v", got, want)
	}
}

// TestColdScanJoinKeepsInputSize evaluates one cold-scan request with
// the join and its fact-side input also written out, and checks the
// join's key is unique on the dimension side: no more rows out than in.
func TestColdScanJoinKeepsInputSize(t *testing.T) {
	s := workloads["cold-scan"](5, testSeconds)
	fs, cat := s.load()
	src := requests(s, 1)[0][0].script + "OUTPUT S TO \"probe/s.out\";\nOUTPUT J TO \"probe/j.out\";\n"
	m, err := logical.BuildSource(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := exec.Reference(m, fs)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, o := range digest(outs) {
		rows[o.Path] = o.Rows
	}
	in, out := rows["probe/s.out"], rows["probe/j.out"]
	if in < scanFactRows/4 || out > in || out < in*9/10 {
		t.Fatalf("join of %d fact-side rows gave %d rows; want at most as many and near it", in, out)
	}
}

func TestInOrder(t *testing.T) {
	s := workloads["cold-scan"](5, testSeconds)
	fs, cat := s.load()
	m, err := logical.BuildSource(requests(s, 1)[0][0].script, cat)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := exec.Reference(m, fs)
	if err != nil {
		t.Fatal(err)
	}
	// The reference interpreter does not sort: its grouping output is
	// in first-seen order, which the order check must reject.
	if inOrder(outs["cs/out/r3.out"], []string{"B"}) {
		t.Fatal("unsorted reference output passed the order check")
	}
}

func TestAttributeSplitsOperatorSelfTime(t *testing.T) {
	// One optimize track and one run track, the second request's; the
	// first track belongs to no request (it starts before both).
	trace := `{"traceEvents":[
{"name":"optimize","cat":"opt","ph":"X","ts":5,"dur":4,"tid":0},
{"name":"optimize","cat":"opt","ph":"X","ts":100,"dur":30,"tid":1},
{"name":"phase1","cat":"opt","ph":"X","ts":101,"dur":10,"tid":1},
{"name":"phase2","cat":"opt","ph":"X","ts":112,"dur":15,"tid":1},
{"name":"run","cat":"exec","ph":"X","ts":140,"dur":60,"tid":2},
{"name":"HashJoin","cat":"exec","ph":"X","ts":141,"dur":55,"tid":2},
{"name":"HashAgg","cat":"exec","ph":"X","ts":142,"dur":30,"tid":2},
{"name":"Repartition","cat":"exec","ph":"X","ts":143,"dur":20,"tid":2},
{"name":"PhysExtract","cat":"exec","ph":"X","ts":144,"dur":12,"tid":2},
{"name":"part","cat":"exec","ph":"X","ts":145,"dur":5,"tid":2},
{"name":"part","cat":"exec","ph":"X","ts":150,"dur":5,"tid":2},
{"name":"part","cat":"exec","ph":"X","ts":164,"dur":7,"tid":2},
{"name":"PhysExtract","cat":"exec","ph":"X","ts":143,"dur":9,"tid":2},
{"name":"part","cat":"exec","ph":"X","ts":144,"dur":6,"tid":2},
{"name":"part","cat":"exec","ph":"X","ts":180,"dur":10,"tid":2}
]}`
	us := func(v float64) time.Duration { return time.Duration(v * 1e3) }
	starts := []time.Duration{us(50), us(99)}
	steps := []step{{ops: map[string]time.Duration{}}, {ops: map[string]time.Duration{}}}
	if err := attribute([]byte(trace), starts, steps); err != nil {
		t.Fatal(err)
	}
	got := steps[1]
	want := map[string]time.Duration{
		"extract": us(16), "agg": us(7), "repartition": us(8), "join": us(10),
	}
	if !reflect.DeepEqual(got.ops, want) {
		t.Errorf("operator self times %v, want %v", got.ops, want)
	}
	if got.optimize != us(30) || got.phase1 != us(10) || got.phase2 != us(15) || got.execRun != us(60) {
		t.Errorf("spans optimize %v phase1 %v phase2 %v run %v", got.optimize, got.phase1, got.phase2, got.execRun)
	}
	if len(steps[0].ops) != 0 || steps[0].optimize != 0 {
		t.Errorf("a span before the first request was attributed to it: %+v", steps[0])
	}
}
