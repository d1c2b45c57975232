package main

import (
	"strings"
	"testing"
)

const sampleOut = `goos: linux
goarch: amd64
pkg: repro
BenchmarkTiledVsSeed/seed-8         	      10	 100000000 ns/op	       640.0 samples/sec
BenchmarkTiledVsSeed/tiled-8        	      30	  40000000 ns/op	      1600 samples/sec
BenchmarkTiledVsSeed/tiled-workers4-8	      60	  20000000 ns/op	      3200 samples/sec
BenchmarkTiledVsSeed/paired-8       	       5	 140000000 ns/op	      0.40 paired-rel	      2.50 x-speedup
BenchmarkLUTVsDirect/circuit-8      	      50	  20000000 ns/op	   43200000 macs/op
BenchmarkLUTVsDirect/lut-weight-major-8	  500	   2000000 ns/op	   43200000 macs/op
BenchmarkLUTVsDirect/paired-8       	      20	  22000000 ns/op	      0.10 paired-rel	     10.0 x-speedup
PASS
`

func mustParse(t *testing.T, out string) []map[string]float64 {
	t.Helper()
	groups, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

func TestParseBench(t *testing.T) {
	groups, err := parseBench(strings.NewReader(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("parsed %d groups, want 1", len(groups))
	}
	runs := groups[0]
	if len(runs) != 7 {
		t.Fatalf("parsed %d benchmarks, want 7: %v", len(runs), runs)
	}
	if got := runs["BenchmarkTiledVsSeed/paired"+pairedSuffix]; got != 0.40 {
		t.Fatalf("paired rel = %v, want the 0.40 paired-rel metric", got)
	}
	if _, ok := runs["BenchmarkTiledVsSeed/paired"]; ok {
		t.Fatal("a paired benchmark's raw ns/op must not become an entry")
	}
	if got := runs["BenchmarkTiledVsSeed/seed"]; got != 100000000 {
		t.Fatalf("seed ns/op = %v, want 100000000 (CPU suffix must be stripped)", got)
	}
	if got := runs["BenchmarkTiledVsSeed/tiled"]; got != 40000000 {
		t.Fatalf("tiled ns/op = %v", got)
	}
}

func TestParseBenchMinOfN(t *testing.T) {
	// go test -count=N emits one line per repetition; within one
	// invocation the parser must keep the minimum ns/op (ambient load
	// only adds time).
	out := `goos: linux
BenchmarkTiledVsSeed/seed-8	10	 120000000 ns/op
BenchmarkTiledVsSeed/seed-8	10	 100000000 ns/op
BenchmarkTiledVsSeed/seed-8	10	 150000000 ns/op
BenchmarkTiledVsSeed/tiled-8	30	  55000000 ns/op
BenchmarkTiledVsSeed/tiled-8	30	  40000000 ns/op
`
	groups, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	if got := groups[0]["BenchmarkTiledVsSeed/seed"]; got != 100000000 {
		t.Fatalf("seed ns/op = %v, want min-of-N 100000000", got)
	}
	if got := groups[0]["BenchmarkTiledVsSeed/tiled"]; got != 40000000 {
		t.Fatalf("tiled ns/op = %v, want min-of-N 40000000", got)
	}
}

func TestParseBenchGroups(t *testing.T) {
	// Concatenated invocations split at their goos: headers.
	out := `goos: linux
BenchmarkTiledVsSeed/seed-8	10	 100000000 ns/op
BenchmarkTiledVsSeed/tiled-8	30	  40000000 ns/op
PASS
goos: linux
BenchmarkTiledVsSeed/seed-8	10	 110000000 ns/op
BenchmarkTiledVsSeed/tiled-8	30	  42000000 ns/op
PASS
`
	groups, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if got := groups[1]["BenchmarkTiledVsSeed/seed"]; got != 110000000 {
		t.Fatalf("second group seed = %v", got)
	}
}

func TestMedianRelAcrossGroups(t *testing.T) {
	// Three invocations: the middle per-invocation ratio wins, so one
	// invocation that caught a load burst on either side cannot skew
	// the gated value. minNs keeps the global minimum.
	out := `goos: linux
BenchmarkTiledVsSeed/seed-8	10	 100000000 ns/op
BenchmarkTiledVsSeed/tiled-8	30	  40000000 ns/op
goos: linux
BenchmarkTiledVsSeed/seed-8	10	 200000000 ns/op
BenchmarkTiledVsSeed/tiled-8	30	  84000000 ns/op
goos: linux
BenchmarkTiledVsSeed/seed-8	10	 100000000 ns/op
BenchmarkTiledVsSeed/tiled-8	30	  90000000 ns/op
`
	groups := mustParse(t, out)
	// Ratios: 0.40, 0.42, 0.90 -> median 0.42.
	rel, ok := medianRel(groups, "BenchmarkTiledVsSeed/tiled", refBench)
	if !ok || rel != 0.42 {
		t.Fatalf("median rel = %v ok=%v, want 0.42", rel, ok)
	}
	ns, ok := minNs(groups, "BenchmarkTiledVsSeed/tiled")
	if !ok || ns != 40000000 {
		t.Fatalf("min ns = %v, want 40000000", ns)
	}
}

func TestPairedEntries(t *testing.T) {
	// Paired entries carry their self-measured interleaved ratio and
	// are the gated ones; plain entries are contextual.
	base, err := build(mustParse(t, sampleOut), nil)
	if err != nil {
		t.Fatal(err)
	}
	tp := base.Benchmarks[tiledPaired]
	if tp == nil || tp.Rel != 0.40 || !tp.Gate || tp.NsPerOp != 0 {
		t.Fatalf("tiled paired entry = %+v, want gated rel 0.40 with no ns", tp)
	}
	if tp.MaxRel != maxTiledRel {
		t.Fatalf("tiled paired MaxRel = %v, want the 2x acceptance floor %v", tp.MaxRel, maxTiledRel)
	}
	lp := base.Benchmarks["BenchmarkLUTVsDirect/paired"+pairedSuffix]
	if lp == nil || lp.Rel != 0.10 || !lp.Gate || lp.MaxRel != 0 {
		t.Fatalf("lut paired entry = %+v, want gated rel 0.10, no floor", lp)
	}
	if e := base.Benchmarks["BenchmarkTiledVsSeed/tiled"]; e.Gate || e.Rel != 0.4 || e.NsPerOp != 40000000 {
		t.Fatalf("plain tiled entry = %+v, want ungated contextual rel 0.4", e)
	}
	if e := base.Benchmarks["BenchmarkLUTVsDirect/circuit"]; e.Gate || e.Rel != 0.2 {
		t.Fatalf("circuit entry = %+v, want ungated rel 0.2", e)
	}
}

func TestBuildRefMissingFromRun(t *testing.T) {
	// No invocation measured the tiled benchmark alongside the global
	// reference: the baseline cannot be built.
	out := `goos: linux
BenchmarkTiledVsSeed/tiled-8	30	  40000000 ns/op
`
	if _, err := build(mustParse(t, out), nil); err == nil {
		t.Fatal("want error when the reference benchmark is absent")
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("want error on output with no benchmark lines")
	}
}

func TestBuildAndCheck(t *testing.T) {
	groups := mustParse(t, sampleOut)
	base, err := build(groups, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Ref != refBench {
		t.Fatalf("ref = %q", base.Ref)
	}
	tiled := base.Benchmarks["BenchmarkTiledVsSeed/tiled"]
	if tiled == nil || tiled.Rel != 0.4 {
		t.Fatalf("tiled entry = %+v, want rel 0.4", tiled)
	}
	if seed := base.Benchmarks[refBench]; seed.Gate {
		t.Fatal("reference entry must not gate itself")
	}

	// The identical run passes its own baseline.
	if fails := check(groups, base, 0.10); len(fails) != 0 {
		t.Fatalf("self-check failed: %v", fails)
	}

	// A 20% regression of the gated paired ratio trips a 10% gate
	// (0.48 is still under the 0.5 floor, so exactly one failure).
	slow := []map[string]float64{{}}
	for k, v := range groups[0] {
		slow[0][k] = v
	}
	slow[0][tiledPaired] *= 1.2
	fails := check(slow, base, 0.10)
	if len(fails) != 1 || !strings.Contains(fails[0], tiledPaired) {
		t.Fatalf("gate failures = %v, want exactly the paired regression", fails)
	}

	// ...but the same slowdown passes a 25% gate.
	if fails := check(slow, base, 0.25); len(fails) != 0 {
		t.Fatalf("loose gate failed: %v", fails)
	}

	// An ungated plain entry never fails the relative gate.
	slow2 := []map[string]float64{{}}
	for k, v := range groups[0] {
		slow2[0][k] = v
	}
	slow2[0]["BenchmarkTiledVsSeed/tiled"] *= 2
	if fails := check(slow2, base, 0.10); len(fails) != 0 {
		t.Fatalf("ungated contextual entry must not gate: %v", fails)
	}
}

func TestCheckMaxRel(t *testing.T) {
	groups := mustParse(t, sampleOut)
	base, _ := build(groups, nil)
	// The 2x acceptance floor holds on the paired ratio regardless of
	// what the committed measurement was.
	if fails := check(groups, base, 0.10); len(fails) != 0 {
		t.Fatalf("paired rel 0.40 must satisfy the 0.5 floor: %v", fails)
	}
	slow := []map[string]float64{{}}
	for k, v := range groups[0] {
		slow[0][k] = v
	}
	// Ratio slips to 0.7: suppress the relative gate to isolate MaxRel.
	slow[0][tiledPaired] = 0.7
	base.Benchmarks[tiledPaired].Gate = false
	fails := check(slow, base, 0.10)
	if len(fails) != 1 || !strings.Contains(fails[0], "required max") {
		t.Fatalf("max_rel violation not reported: %v", fails)
	}
}

func TestBuildPreservesPolicy(t *testing.T) {
	groups := mustParse(t, sampleOut)
	prev, _ := build(groups, nil)
	prev.Benchmarks["BenchmarkTiledVsSeed/tiled-workers4"].Gate = true
	prev.Benchmarks["BenchmarkTiledVsSeed/tiled"].MaxRel = 1.0 / 1.5
	prev.Benchmarks[tiledPaired].MaxRel = 0.9 // a stale acceptance floor

	next, err := build(groups, prev)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Benchmarks["BenchmarkTiledVsSeed/tiled-workers4"].Gate {
		t.Fatal("-update must keep a hand-set Gate=true from the previous baseline")
	}
	if next.Benchmarks["BenchmarkTiledVsSeed/tiled"].MaxRel == 0 {
		t.Fatal("-update must keep MaxRel from the previous baseline")
	}
	if got := next.Benchmarks[tiledPaired].MaxRel; got != maxTiledRel {
		t.Fatalf("-update must rewrite the acceptance floor: MaxRel = %v, want %v", got, maxTiledRel)
	}
}

// cacheOut is a WarmStoreCraft-style invocation: custom cache-* metrics
// alongside ns/op, no kernel benches in sight.
const cacheOut = `goos: linux
goarch: amd64
pkg: repro
BenchmarkWarmStoreCraft-8   	       3	  52000000 ns/op	      3.000 cache-disk-hits	         0 cache-disk-misses	         0 cache-errors
PASS
`

func TestParseCacheMetrics(t *testing.T) {
	groups := mustParse(t, cacheOut)
	runs := groups[0]
	if got := runs["BenchmarkWarmStoreCraft@cache-disk-hits"]; got != 3 {
		t.Fatalf("cache-disk-hits = %v, want 3", got)
	}
	if got, ok := runs["BenchmarkWarmStoreCraft@cache-disk-misses"]; !ok || got != 0 {
		t.Fatalf("cache-disk-misses = %v ok=%v, want 0", got, ok)
	}
	// Unlike paired benches, a cache bench's plain ns/op is a real
	// measurement and stays recorded.
	if got := runs["BenchmarkWarmStoreCraft"]; got != 52000000 {
		t.Fatalf("WarmStoreCraft ns/op = %v", got)
	}
}

func TestBuildMergesUnmeasuredPrevEntries(t *testing.T) {
	// prev holds the kernel benches; the new run measured only the cache
	// bench. -update must keep the kernel entries verbatim and add the
	// cache entries ungated.
	prev, err := build(mustParse(t, sampleOut), nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := build(append(mustParse(t, sampleOut), mustParse(t, cacheOut)...), prev)
	if err != nil {
		t.Fatal(err)
	}
	if e := merged.Benchmarks[tiledPaired]; e == nil || !e.Gate || e.MaxRel == 0 {
		t.Fatalf("kernel entry lost in merge: %+v", e)
	}
	hits := merged.Benchmarks["BenchmarkWarmStoreCraft@cache-disk-hits"]
	if hits == nil || hits.Rel != 3 || hits.Gate {
		t.Fatalf("cache entry = %+v, want ungated rel 3", hits)
	}
	if hits.NsPerOp != 0 {
		t.Fatalf("synthetic cache entry must not carry ns/op: %+v", hits)
	}
}

func TestCheckSkipsMissingUngatedEntries(t *testing.T) {
	// Baseline contains both kernel and cache entries; the CI perf job
	// runs only the kernels. Missing cache entries must not fail the
	// gate — but a missing GATED entry still must.
	full, err := build(append(mustParse(t, sampleOut), mustParse(t, cacheOut)...), nil)
	if err != nil {
		t.Fatal(err)
	}
	kernelsOnly := mustParse(t, sampleOut)
	if fails := check(kernelsOnly, full, 0.10); len(fails) != 0 {
		t.Fatalf("missing ungated entries must not fail: %v", fails)
	}
	full.Benchmarks["BenchmarkWarmStoreCraft@cache-disk-hits"].Gate = true
	fails := check(kernelsOnly, full, 0.10)
	if len(fails) != 1 || !strings.Contains(fails[0], "cache-disk-hits") {
		t.Fatalf("missing gated entry must fail: %v", fails)
	}
}
