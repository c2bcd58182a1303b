package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/stats"
)

// request is one script a tenant submits.
type request struct {
	// name labels the request in failure messages ("S4", "scan-0007").
	name   string
	script string
	// order maps each OUTPUT path that carries an ORDER BY to its sort
	// columns (all ascending).
	order map[string][]string
}

// stream is one workload instantiated for one seed: the inputs, the
// scripts each tenant sends in order, and how the server is sized.
type stream struct {
	// load generates the inputs and their statistics. Every call
	// generates them afresh from the seed, so the reference check runs
	// on a separately generated copy of what the server read.
	load func() (*exec.FileStore, *stats.Catalog)
	// warmup is submitted once, untimed, before the timed phase.
	warmup []request
	// tenants are the closed-loop tenants, each sending its requests in
	// index order until the timed phase ends. A tenant that runs out
	// first fails the run (see drive).
	tenants []tenant
	// cacheBytes sizes the server's result cache (0 = the default).
	cacheBytes int64
}

// tenant returns a tenant's i-th request, or false when it has no more.
// Calls with the same i give the same request.
type tenant func(i int) (request, bool)

// listTenant sends reqs in order.
func listTenant(reqs []request) tenant {
	return func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	}
}

// workloads maps each workload name to its generator. seconds is the
// timed-phase length; it only bounds how long the cold request lists
// are.
var workloads = map[string]func(seed int64, seconds int) *stream{
	"warm-repeat": warmRepeat,
	"cold-scan":   coldScan,
	"cold-plan":   coldPlan,
}

// warmScripts are the paper's micro scripts over the small dataset.
// Every round a tenant sends them all, S2 twice: seven requests whose
// fourth-slowest is a whole script rather than the boundary between
// two, so the median latency does not jump between neighbouring
// scripts from one seed to the next.
var warmScripts = []request{
	{name: "S1", script: bench.ScriptS1},
	{name: "S2", script: bench.ScriptS2},
	{name: "S3", script: bench.ScriptS3},
	{name: "S4", script: bench.ScriptS4},
	{name: "Fig5", script: bench.ScriptFig5},
	{name: "Ranking", script: bench.ScriptRanking},
	{name: "S2", script: bench.ScriptS2},
}

// warmRepeat: two tenants resubmit the micro scripts in seeded orders
// after one warm-up pass, so every shared subexpression is served
// from the cache and each request is mostly re-planning. Each tenant
// draws its rounds from its own seeded source as it reaches them, so
// it never runs out however fast the service gets.
func warmRepeat(seed int64, _ int) *stream {
	r := rand.New(rand.NewSource(seed))
	dataSeed := r.Int63()
	s := &stream{
		load: func() (*exec.FileStore, *stats.Catalog) {
			w := datagen.SmallWorkloadCols("warm", "", 2_000, 1_000_000, dataSeed,
				datagen.MicroScriptColumns())
			return w.FS, w.Cat
		},
		warmup: warmScripts[:6],
	}
	for t := 0; t < 2; t++ {
		rounds := rand.New(rand.NewSource(r.Int63()))
		var reqs []request
		s.tenants = append(s.tenants, func(i int) (request, bool) {
			for i >= len(reqs) {
				for _, j := range rounds.Perm(len(warmScripts)) {
					reqs = append(reqs, warmScripts[j])
				}
			}
			return reqs[i], true
		})
	}
	return s
}

// Cold-scan input sizes. D is drawn from [0, 2^40); B from [0, 500).
const (
	scanFactRows = 300_000
	scanDimRows  = 20_000
	// scanCacheBytes is the result cache for cold-scan (scoped's
	// -cache-bytes): three or four scripts' worth of admitted
	// aggregations, so the stream admits more than it holds and the
	// cache evicts from the fifth script on.
	scanCacheBytes = 16 << 20
)

// planCacheBytes is the result cache for cold-plan: about five
// scripts' worth of admitted artifacts. Under the default cache the
// artifacts of every script would stay, and the heap would grow with
// the number of scripts a run completes.
const planCacheBytes = 1 << 20

var (
	scanFactCols = []datagen.ColumnSpec{
		{Name: "A", Distinct: 20_000}, {Name: "B", Distinct: 500},
		{Name: "C", Distinct: 2_000}, {Name: "D", Distinct: 1 << 40},
	}
	scanDimCols = []datagen.ColumnSpec{
		{Name: "K", Distinct: 500}, {Name: "X", Distinct: 1 << 40},
	}
)

// coldScanScript is one cold-scan request: a filtered fact table feeds
// a shared aggregation with three consumers, one of them a join with a
// per-key dimension aggregate. The dimension side is grouped by the
// join key first, so the join key is unique on that side and the join
// output is no larger than the fact side. Both filter constants are
// new in every request, so no non-leaf subexpression repeats.
const coldScanScript = `F0 = EXTRACT A,B,C,D FROM "cs/fact.log" USING LogExtractor;
F = SELECT A,B,C,D FROM F0 WHERE D >= %d;
S = SELECT A,B,C,Sum(D) as S FROM F GROUP BY A,B,C;
R1 = SELECT A,Sum(S) as S1 FROM S GROUP BY A;
R2 = SELECT C,Max(S) as S2 FROM S GROUP BY C;
K0 = EXTRACT K,X FROM "cs/dim.log" USING LogExtractor;
KF = SELECT K,X FROM K0 WHERE X >= %d;
DK = SELECT K,Sum(X) as XS FROM KF GROUP BY K;
J = SELECT S.B as B,S,XS FROM S, DK WHERE S.B = DK.K;
R3 = SELECT B,Count() as N,Sum(XS) as XT FROM J GROUP BY B;
OUTPUT R1 TO "cs/out/r1.out";
OUTPUT R2 TO "cs/out/r2.out";
OUTPUT R3 TO "cs/out/r3.out" ORDER BY B;
`

// coldScan: one tenant sends scripts that never repeat over a few
// hundred thousand rows; execution dominates and nothing hits.
func coldScan(seed int64, seconds int) *stream {
	r := rand.New(rand.NewSource(seed))
	factSeed, dimSeed := r.Int63(), r.Int63()
	s := &stream{
		load: func() (*exec.FileStore, *stats.Catalog) {
			fs, cat := exec.NewFileStore(), stats.NewCatalog()
			fs.Put("cs/fact.log", datagen.LogTable(scanFactRows, scanFactCols, factSeed))
			datagen.CatalogFor(cat, "cs/fact.log", scanFactRows, scanFactCols, 1)
			fs.Put("cs/dim.log", datagen.LogTable(scanDimRows, scanDimCols, dimSeed))
			datagen.CatalogFor(cat, "cs/dim.log", scanDimRows, scanDimCols, 1)
			return fs, cat
		},
		cacheBytes: scanCacheBytes,
	}
	// Filter constants keep about half of each input: every request
	// does the same work, and no two requests share a constant.
	const half = 1 << 39
	perm := r.Perm(1 << 16)
	// Sized for 20 requests per second, about fifteen times today's rate.
	var reqs []request
	for i := 0; i < 20*seconds && i < len(perm); i++ {
		c := int64(half + perm[i]*1_000_003)
		reqs = append(reqs, request{
			name:   fmt.Sprintf("scan-%04d", i),
			script: fmt.Sprintf(coldScanScript, c, c+int64(r.Intn(1<<20))),
			order:  map[string][]string{"cs/out/r3.out": {"B"}},
		})
	}
	s.tenants = []tenant{listTenant(reqs)}
	return s
}

// coldPlanShape is the LS-family shape cold-plan scripts take: a few
// hundred operators around several shared aggregation groups.
func coldPlanShape(seed int64) datagen.LSShape {
	return datagen.LSShape{
		Name:            "cold-plan",
		TargetOps:       300,
		SharedFanouts:   []int{2, 3, 2, 3, 2, 3, 2, 3},
		PhysRows:        500,
		StatScale:       1_000_000,
		FillerStatScale: 1_000_000,
		FillerChainLen:  40,
		Seed:            seed,
	}
}

// coldPlan: one tenant sends LS-shaped scripts, each over inputs of
// its own, so every request is first-time planning of a large script.
// The inputs of request i are the shape's generated tables registered
// under the prefix "cp<i>/", so their fingerprints differ while the
// data, and with it the work, stays the same.
func coldPlan(seed int64, seconds int) *stream {
	r := rand.New(rand.NewSource(seed))
	shape := coldPlanShape(r.Int63())
	// Sized for 20 requests per second, several times today's rate:
	// every request needs inputs of its own, loaded in set-up.
	n := 20 * seconds
	base := datagen.LargeScript(shape).Script
	var reqs []request
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("cp%04d/", i)
		reqs = append(reqs, request{
			name:   fmt.Sprintf("plan-%04d", i),
			script: strings.ReplaceAll(base, `FROM "logs/`, `FROM "`+prefix+`logs/`),
		})
	}
	return &stream{
		load: func() (*exec.FileStore, *stats.Catalog) {
			w := datagen.LargeScript(shape)
			fs, cat := exec.NewFileStore(), stats.NewCatalog()
			for _, p := range w.FS.Paths() {
				t, _ := w.FS.Get(p)
				for i := 0; i < n; i++ {
					q := fmt.Sprintf("cp%04d/%s", i, p)
					fs.Put(q, t)
					cat.Put(q, w.Cat.Table(p))
				}
			}
			return fs, cat
		},
		tenants:    []tenant{listTenant(reqs)},
		cacheBytes: planCacheBytes,
	}
}
