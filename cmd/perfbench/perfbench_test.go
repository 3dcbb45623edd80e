package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"trikcore/internal/core"
	"trikcore/internal/graph"
)

// ownMetrics is the metric × workload table: the end-to-end metrics each
// workload's own traffic drives. The rest of what a workload prints
// comes from the probes.
var ownMetrics = map[string][]string{
	"serve-read": {"setup_s", "read_p50_ms", "read_tail_ms", "artifact_p50_ms", "artifact_tail_ms",
		"write_p50_ms", "write_tail_ms", "peak_rss_mb"},
	"serve-feed": {"setup_s", "write_p50_ms", "write_tail_ms", "feed_lag_p50_ms", "feed_lag_tail_ms", "peak_rss_mb"},
	"churn":      {"setup_s", "write_p50_ms", "write_tail_ms", "update_ops_per_s", "peak_rss_mb"},
	"decompose":  {"setup_s", "decompose_edges_per_s", "external_edges_per_s", "peak_rss_mb"},
}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// testRun builds the server into a temporary checkout layout and returns
// a short run of workload.
func testRun(t *testing.T, workload string, trace bool) *run {
	t.Helper()
	root := t.TempDir()
	bin := filepath.Join(root, ".bench_build", "trikcore")
	if out, err := exec.Command("go", "build", "-o", bin, "trikcore/cmd/trikcore").CombinedOutput(); err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	r, err := newRun(root, workload, 7, time.Second, trace)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkMetrics compares got with the names and units in want. Timings
// and rates must not be 0; a per-layer count may be, on a short run.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s: unit %q, want %q", name, m.Unit, unit)
		} else if m.Value == 0 && unit != "count" && unit != "bytes" {
			t.Errorf("metric %s is 0", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected metric %s", name)
		}
	}
}

// TestWorkloadsEmitTheirMetrics runs every workload briefly. Each must
// pass its correctness checks, print every end-to-end metric of
// BENCHMARK.json with its unit, and have produced from its own traffic
// exactly its rows of the metric table.
func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	endToEnd, _ := benchmarkSpec(t)
	for _, w := range []string{"serve-read", "serve-feed", "churn", "decompose"} {
		t.Run(w, func(t *testing.T) {
			r := testRun(t, w, false)
			if err := r.execute(); err != nil {
				t.Fatal(err)
			}
			res := r.result()
			if !res.Correct {
				t.Fatalf("checks failed: %v", r.failures)
			}
			checkMetrics(t, res.Metrics, endToEnd)
			var own []string
			for name, n := range r.notes {
				if n.Own {
					own = append(own, name)
				}
			}
			sort.Strings(own)
			want := append([]string(nil), ownMetrics[w]...)
			sort.Strings(want)
			if !reflect.DeepEqual(own, want) {
				t.Errorf("own metrics %v, want %v", own, want)
			}
		})
	}
}

// TestTracedRunEmitsLayerMetrics checks that a traced run prints every
// per-layer metric of BENCHMARK.json with its unit.
func TestTracedRunEmitsLayerMetrics(t *testing.T) {
	_, perLayer := benchmarkSpec(t)
	r := testRun(t, "serve-feed", true)
	if err := r.execute(); err != nil {
		t.Fatal(err)
	}
	res := r.result()
	if !res.Correct {
		t.Fatalf("checks failed: %v", r.failures)
	}
	checkMetrics(t, res.Metrics, perLayer)
}

// TestReadbackCatchesWrongKappa shows that one wrong expected κ among
// all the edges read back is counted as a failure and fails the run.
func TestReadbackCatchesWrongKappa(t *testing.T) {
	r := testRun(t, "serve-feed", false)
	f, err := newFixture("ppi", ppiGraph(), r.build)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := startServer(r.bin, "-in", f.file)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	want := referenceKappa(f.edges)
	r.readback(srv, "", f.edges, want)
	if r.failed != 0 || r.attempted != len(f.edges)+1 {
		t.Fatalf("correct readback: %d of %d failed: %v", r.failed, r.attempted, r.failures)
	}
	want[f.edges[len(f.edges)/2]]++
	r.readback(srv, "", f.edges, want)
	if r.failed != 1 {
		t.Fatalf("wrong κ: %d failures, want 1", r.failed)
	}
	if r.result().Correct {
		t.Fatal("a run with a wrong κ reported correct")
	}
}

// TestSameKappaCatchesMismatch covers the decompose check: one differing
// κ between two decompositions of a graph is an error.
func TestSameKappaCatchesMismatch(t *testing.T) {
	s := graph.FreezeStatic(ppiGraph())
	d := core.DecomposeStatic(s, core.Options{})
	if err := sameKappa(s, d.Kappa, s, d.Kappa); err != nil {
		t.Fatal(err)
	}
	bad := append([]int32(nil), d.Kappa...)
	bad[len(bad)/2]++
	if sameKappa(s, d.Kappa, s, bad) == nil {
		t.Fatal("a wrong κ passed")
	}
}

func TestTailIsNearestRankWithTenBeyond(t *testing.T) {
	var s sample
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if got := s.median(); got != 50 {
		t.Errorf("median %v, want 50", got)
	}
	if v, pct := s.tail(); v != 90 || pct != 90 {
		t.Errorf("tail %v at p%v, want 90 at p90", v, pct)
	}
}
