// Command perfbench is trikcore's benchmark: one command that runs a
// named workload from a seed, checks every output it gets back, and
// prints each metric by name with its unit. See README.md for the
// workloads, the metrics and how to run it.
//
// Usage (from the repository root, through cmd/perfbench/run.sh, which
// builds this driver and the server first):
//
//	bash cmd/perfbench/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// note records how a metric was resolved: from how many samples, the
// percentile a tail resolved to, and whether the workload's own phase
// produced it (false: a probe did).
type note struct {
	Samples int     `json:"samples"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Own     bool    `json:"own"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	build    string // scratch directory under the checkout
	bin      string // the trikcore binary

	attempted, failed int
	failures          []string
	metrics           map[string]metric
	notes             map[string]note
	late              sample // how far open-loop sends ran behind schedule, ms
	steal             *stealClock
	logs              []*phaseLog
	host              *hostShape
	tr                *tracer // traced runs only
}

// workloads maps each workload name to its own phase. Every workload
// then runs the other phases as probes; see probes.
var workloads = map[string]func(r *run, fx *fixtures) error{
	"serve-read": func(r *run, fx *fixtures) error {
		return r.serving(fx.astro, func(srv *serverProc) { r.readPhase(srv, "", fx.astro, r.seconds, true) })
	},
	"serve-feed": func(r *run, fx *fixtures) error {
		return r.serving(fx.ppi, func(srv *serverProc) { r.feedPhase(srv, "", fx.ppi, r.seconds, true) })
	},
	"churn": func(r *run, fx *fixtures) error {
		return r.serving(fx.astro, func(srv *serverProc) { r.churnPhase(srv, "", fx.astro, r.seconds, true) })
	},
	"decompose": func(r *run, fx *fixtures) error {
		r.decomposePhase(r.seconds, true)
		return nil
	},
}

type fixtures struct{ astro, ppi *fixture }

func main() {
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	workload := flag.String("workload", "", "workload to run: serve-read, serve-feed, churn or decompose")
	seed := flag.Int64("seed", 1, "seed of the generated operations")
	seconds := flag.Float64("seconds", 10, "length of the workload's own measured phase")
	trace := flag.Int("trace", 0, "1 = traced run: replay the op logs in process and print the per-layer metrics")
	flag.Parse()
	r, err := newRun(*root, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err == nil {
		err = r.execute()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := r.result()
	if err := r.report(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
		os.Exit(1)
	}
}

func newRun(root, workload string, seed int64, seconds time.Duration, trace bool) (*run, error) {
	if _, ok := workloads[workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	build := filepath.Join(root, ".bench_build", "run")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		build:   build,
		bin:     filepath.Join(root, ".bench_build", "trikcore"),
		metrics: make(map[string]metric),
		notes:   make(map[string]note),
	}, nil
}

// execute runs the workload's own phase, then the probes, then, on a
// traced run, the in-process replay.
func (r *run) execute() error {
	r.host = newHostShape()
	astro, err := newFixture("astro", astroGraph(), r.build)
	if err != nil {
		return err
	}
	ppi, err := newFixture("ppi", ppiGraph(), r.build)
	if err != nil {
		return err
	}
	fx := &fixtures{astro: astro, ppi: ppi}
	r.steal = startStealClock()
	err = workloads[r.workload](r, fx)
	if err == nil {
		err = r.probes(fx)
	}
	r.host.StealTicks = r.steal.close()
	if err != nil || !r.trace {
		return err
	}
	timed("traced replay", func() { err = r.replay() })
	return err
}

// serving starts the server on the workload's fixture setupReps times,
// reporting the median start-to-ready time as setup_s, keeps the last
// instance, runs the phase on it, and ends by reading back κ of every
// edge.
func (r *run) serving(f *fixture, phase func(srv *serverProc)) error {
	var setup sample
	var srv *serverProc
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		s, took, err := startServer(r.bin, "-in", f.file)
		if err != nil {
			return err
		}
		srv = s
		setup = append(setup, took.Seconds())
	}
	defer srv.stop()
	r.set("setup_s", setup.median(), "s", len(setup), 0, true)
	timed(r.workload, func() { phase(srv) })
	rss, err := srv.peakRSSMB()
	r.attempt(err)
	r.set("peak_rss_mb", rss, "MB", 1, 0, true)
	timed("readback", func() { r.verify(srv, "", f) })
	return nil
}

// probes runs, at probe size, every phase other than the workload's own,
// so that each workload prints every metric. They run after the
// workload's own phase, on a separate server process, and a metric the
// workload's own phase reported is never overwritten.
func (r *run) probes(fx *fixtures) error {
	srv, _, err := startServer(r.bin, "-in", fx.astro.file, "-graphs", "ppi="+fx.ppi.file)
	if err != nil {
		return err
	}
	if r.workload != "serve-read" {
		timed("serve-read probe", func() { r.readPhase(srv, "", fx.astro, readProbe, false) })
	}
	if r.workload != "serve-feed" {
		timed("serve-feed probe", func() { r.feedPhase(srv, "/g/ppi", fx.ppi, 0, false) })
	}
	if r.workload != "churn" {
		timed("churn probe", func() { r.churnPhase(srv, "", fx.astro, 0, false) })
	}
	timed("probe readback", func() {
		r.verify(srv, "", fx.astro)
		r.verify(srv, "/g/ppi", fx.ppi)
	})
	srv.stop() // before the in-process decomposition, so nothing else runs beside it
	if r.workload != "decompose" {
		timed("decompose probe", func() { r.decomposePhase(0, false) })
	}
	return nil
}

// timed runs one step and logs its wall time to standard error.
func timed(step string, fn func()) {
	t := time.Now()
	fn()
	fmt.Fprintf(os.Stderr, "perfbench: %s took %.2fs\n", step, time.Since(t).Seconds())
}

// rng returns the seeded generator of one phase. It depends only on the
// seed and the phase name, never on what ran before.
func (r *run) rng(phase string) *rand.Rand {
	h := r.seed
	for _, c := range phase {
		h = h*31 + int64(c)
	}
	return rand.New(rand.NewSource(h))
}

// path names a scratch file of this run.
func (r *run) path(name string) string { return filepath.Join(r.build, name) }

// attempt counts one checked operation; a non-nil err is a failure.
func (r *run) attempt(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed check.
func (r *run) fail(err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

// set records a metric. A probe (own = false) never replaces a value
// the workload's own phase reported.
func (r *run) set(name string, v float64, unit string, samples int, tailPct float64, own bool) {
	if _, ok := r.metrics[name]; ok && !own {
		return
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note{Samples: samples, TailPct: tailPct, Own: own}
}

// latency records <name>_p50_ms and <name>_tail_ms from the quiet
// samples of s: their nearest-rank p50, and their chunked tail.
func (r *run) latency(name string, s series, own bool) {
	q := quiet(s, r.steal)
	if len(q) == 0 {
		r.fail(fmt.Errorf("%s: no samples", name))
		return
	}
	r.set(name+"_p50_ms", q.median(), "ms", len(q), 0, own)
	tail, pct := q.chunkedTail()
	r.set(name+"_tail_ms", tail, "ms", len(q), pct, own)
}

func (r *run) result() result {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	if r.attempted < 1 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	if r.trace {
		res.Metrics = r.layerMetrics()
		return res
	}
	for _, name := range endToEnd {
		if m, ok := r.metrics[name]; ok {
			res.Metrics[name] = m
		}
	}
	res.Metrics["success_frac"] = metric{Value: float64(res.Attempted-res.Failed) / float64(res.Attempted), Unit: "ratio"}
	return res
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []string{
	"setup_s",
	"read_p50_ms", "read_tail_ms", "artifact_p50_ms", "artifact_tail_ms",
	"write_p50_ms", "write_tail_ms", "feed_lag_p50_ms", "feed_lag_tail_ms",
	"update_ops_per_s", "decompose_edges_per_s", "external_edges_per_s",
	"peak_rss_mb",
}

// report prints the run record (seed, host shape, per-metric sample
// counts and tail percentiles) and then the result as the last line.
func (r *run) report(w *os.File, res result) error {
	names := make([]string, 0, len(r.notes))
	for n := range r.notes {
		names = append(names, n)
	}
	sort.Strings(names)
	notes := make(map[string]note, len(names))
	for _, n := range names {
		notes[n] = r.notes[n]
	}
	rec := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds.Seconds(),
		"trace": r.trace, "host": r.host, "samples": notes, "failures": r.failures,
	}
	if r.tr != nil {
		rec["spans"] = r.tr.spanSummary()
		rec["load_share"] = loadShare(r.workload, res.Metrics)
	}
	for _, v := range []any{rec, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, string(line)); err != nil {
			return err
		}
	}
	return nil
}
