package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"trikcore/internal/core"
	"trikcore/internal/dynamic"
	"trikcore/internal/extcore"
	"trikcore/internal/graph"
	"trikcore/internal/obs"
	"trikcore/internal/registry"
	"trikcore/internal/server"
	"trikcore/internal/template"
	"trikcore/internal/view"
)

// The traced run replays each phase's op log in process against a
// separate replica of every layer the phase reaches, timing each public
// call from the benchmark's own code. Spans live in memory and are
// written out when the run ends; nothing is added inside the program.

// span is one timed call. Spans of one operation share its op index;
// parent is the enclosing span's id, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Main   bool   `json:"main"`
	Op     int    `json:"op"`
	Warm   bool   `json:"warm"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// countKey names a per-operation count: the value's name and whether it
// came from the workload's own phase.
type countKey struct {
	name string
	main bool
}

// tracer records spans plus per-operation counts (allocated bytes, feed
// events, engine work counters).
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[countKey]sample
	log    *phaseLog // the log being replayed
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[countKey]sample)}
}

// open starts a span for op opIdx of the current log and returns its id.
func (t *tracer) open(name string, parent, opIdx int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Phase: t.log.phase, Main: t.log.main,
		Op: opIdx, Warm: opIdx < t.log.warm, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) close(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// call times fn as a span and returns its id.
func (t *tracer) call(name string, parent, opIdx int, fn func()) int {
	id := t.open(name, parent, opIdx)
	fn()
	t.close(id)
	return id
}

func (t *tracer) dur(id int) time.Duration {
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

func (t *tracer) count(name string, v float64) {
	k := countKey{name, t.log.main}
	t.counts[k] = append(t.counts[k], v)
}

// selfTimes fills each span's self time: its duration minus the part of
// it its children cover. Children of one parent never overlap here (the
// replay is sequential), so covered time is their summed duration.
func (t *tracer) selfTimes() {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - covered[t.spans[i].ID]
	}
}

// replayBudget caps the time one replica spends on one log, so the
// armed-feed and template replicas (hundreds of ms per write on Astro)
// stay affordable. A replica always replays at least replayMinWrites
// writes.
const (
	replayBudget    = 2 * time.Second
	replayMinWrites = 3
)

// replay runs every recorded phase's log through the layer replicas,
// then the in-process decomposition calls, and writes the spans out.
func (r *run) replay() error {
	t := newTracer()
	r.tr = t
	for _, lg := range r.logs {
		t.log = lg
		r.replayServer(lg)
		r.replayRegistry(lg)
		r.replayView(lg)
		r.replayTemplate(lg)
		r.replayEngine(lg)
	}
	r.replayDecompose()
	t.selfTimes()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(r.path(fmt.Sprintf("spans-%s-%d.json", r.workload, r.seed)), data, 0o644)
}

// budget tracks one replica's spend on one log.
type budget struct {
	start  time.Time
	writes int
}

func newBudget() *budget { return &budget{start: time.Now()} }

// spent reports whether the replica should stop before the next write.
func (b *budget) spent() bool {
	return b.writes >= replayMinWrites && time.Since(b.start) > replayBudget
}

// replayServer sends the log's requests to an in-process server built
// like `trikcore serve` (metrics registry on), timing
// Handler().ServeHTTP per request. On a serve-feed log the space's feed
// is armed by an in-process subscriber, as in the live run. It also
// times decoding each write body into server.EdgesRequest.
func (r *run) replayServer(lg *phaseLog) {
	t := r.tr
	srv := server.NewWith(lg.f.g, server.Options{Registry: obs.NewRegistry()})
	defer srv.Close()
	if lg.phase == "serve-feed" {
		sp, _ := srv.Registry().Get(registry.DefaultGraph)
		stop := drain(sp.Feed())
		defer stop()
	}
	h := srv.Handler()
	b := newBudget()
	for i, o := range lg.ops {
		if o.kind == opWrite {
			if b.spent() {
				break
			}
			b.writes++
			t.call("server.decode", 0, i, func() {
				var req server.EdgesRequest
				r.attempt(json.NewDecoder(bytes.NewReader(o.body)).Decode(&req))
			})
		}
		req := httptest.NewRequest(o.method(), o.path, bytes.NewReader(o.body))
		rec := httptest.NewRecorder()
		name := [...]string{opPoint: "server.read", opArtifact: "server.artifact", opWrite: "server.write"}[o.kind]
		id := t.call(name, 0, i, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			r.fail(fmt.Errorf("replay %s: status %d", o.path, rec.Code))
		}
		if o.kind == opWrite && i >= lg.warm && lg.outs != nil {
			t.count("server.write_wait_ms", ms(lg.outs[i].latency-t.dur(id)))
		}
	}
}

// drain arms f with a subscriber that discards its events, until the
// returned stop is called.
func drain(f *registry.Feed) (stop func()) {
	_, sub := f.Subscribe(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-sub.C:
			case <-sub.Done:
				return
			}
		}
	}()
	return func() {
		f.Unsubscribe(sub)
		<-done
	}
}

// replayRegistry applies the log's writes through Space.Apply on two
// registry replicas fed the same ops: one unarmed, one with a subscriber
// armed, whose per-write difference is the feed's cost.
func (r *run) replayRegistry(lg *phaseLog) {
	t := r.tr
	unarmed, err := registry.New(registry.Config{}).Create("g", lg.f.g)
	if err != nil {
		r.fail(err)
		return
	}
	armed, err := registry.New(registry.Config{}).Create("g", lg.f.g)
	if err != nil {
		r.fail(err)
		return
	}
	stop := drain(armed.Feed())
	defer stop()
	b := newBudget()
	writes := 0
	for i, o := range lg.ops {
		if o.kind != opWrite {
			continue
		}
		if b.spent() {
			break
		}
		b.writes++
		ops := edgeOps(o.batch)
		var e1, e2 error
		u := t.call("registry.apply", 0, i, func() { _, _, e1 = unarmed.Apply(ops) })
		a := t.call("registry.apply_armed", 0, i, func() { _, _, e2 = armed.Apply(ops) })
		r.attempt(e1)
		r.attempt(e2)
		t.count("registry.feed_ms", ms(t.dur(a)-t.dur(u)))
		writes++
	}
	// Counted from the feed's ids: a burst of more events than a
	// subscriber buffers drops the subscriber, not the events.
	if writes > 0 {
		t.count("registry.feed_events_per_write", float64(armed.Feed().LastID())/float64(writes))
	}
}

// replayView replays the log through a Publisher: Publisher.Apply per
// write, with the bytes it allocates, and per artifact read the snapshot
// method the handler calls, split into the first call on each snapshot
// (a memo build) and repeats (memo hits).
func (r *run) replayView(lg *phaseLog) {
	t := r.tr
	pub := view.NewPublisherFromGraph(lg.f.g)
	built := make(map[string]bool)
	b := newBudget()
	var mem runtime.MemStats
	for i, o := range lg.ops {
		switch o.kind {
		case opWrite:
			if b.spent() {
				return
			}
			b.writes++
			runtime.ReadMemStats(&mem)
			before := mem.TotalAlloc
			t.call("view.publish", 0, i, func() { pub.Apply(edgeOps(o.batch)) })
			runtime.ReadMemStats(&mem)
			t.count("view.publish_alloc_kb", float64(mem.TotalAlloc-before)/1024)
		case opArtifact:
			sn := pub.Acquire()
			key := fmt.Sprintf("%d%s", sn.Version, o.path)
			name := "view.memo_hit"
			if !built[key] {
				built[key] = true
				name = "view.memo_build"
			}
			t.call(name, 0, i, func() {
				switch o.path {
				case "/plot.svg":
					sn.PlotSVG()
				case "/plot.txt":
					sn.PlotASCII()
				default:
					sn.CommunitiesAt(communitiesK)
				}
			})
		}
	}
}

// replayTemplate runs the feed's template detection on each write's
// (previous, current) snapshot pair, on a publisher of its own so its
// garbage does not land on the publish timings.
func (r *run) replayTemplate(lg *phaseLog) {
	pub := view.NewPublisherFromGraph(lg.f.g)
	b := newBudget()
	for i, o := range lg.ops {
		if o.kind != opWrite {
			continue
		}
		if b.spent() {
			return
		}
		b.writes++
		prev := pub.Acquire()
		pub.Apply(edgeOps(o.batch))
		r.detect(prev, pub.Acquire(), i)
	}
}

// detect runs the feed's template detection on one (prev, cur) pair.
func (r *run) detect(prev, cur *view.Snapshot, opIdx int) {
	t := r.tr
	p := t.open("template.detect", 0, opIdx)
	defer t.close(p)
	var oldG, newG *graph.Graph
	t.call("view.snapshot_graph", p, opIdx, func() { oldG = prev.Graph() })
	t.call("view.snapshot_graph", p, opIdx, func() { newG = cur.Graph() })
	var nov template.Novelty
	t.call("template.evolving", p, opIdx, func() { nov = template.Evolving(oldG, newG) })
	for _, spec := range []template.Spec{template.NewForm(nov), template.Bridge(nov), template.NewJoin(nov)} {
		t.call("template.detect_one", p, opIdx, func() {
			if res := template.Detect(newG, spec); len(res.Characteristic) > 0 {
				res.TopCliques(3, 3) // the feed reports the top 3 cliques of width ≥ 3
			}
		})
	}
}

// replayEngine applies the log's writes to a bare engine: ApplyBatch and
// FreezeView timed apart, with the engine's exact work counters per op.
func (r *run) replayEngine(lg *phaseLog) {
	t := r.tr
	en := dynamic.NewEngine(lg.f.g)
	b := newBudget()
	for i, o := range lg.ops {
		if o.kind != opWrite {
			continue
		}
		if b.spent() {
			return
		}
		b.writes++
		ops := edgeOps(o.batch)
		before := en.Stats()
		t.call("dynamic.apply", 0, i, func() { en.ApplyBatch(ops) })
		t.call("dynamic.freeze_view", 0, i, func() { en.FreezeView() })
		after := en.Stats()
		t.count("dynamic.triangles", float64(after.TrianglesProcessed-before.TrianglesProcessed))
		t.count("dynamic.edges_visited", float64(after.EdgesVisited-before.EdgesVisited))
		t.count("dynamic.ops", float64(len(ops)))
	}
}

// replayDecompose times the decomposition layers on the power-law
// fixture: BuildMappedFile, FreezeStatic, ComputeSupport and
// DecomposeStatic (peel = DecomposeStatic minus support), and the
// partitioned extcore.Decompose with its run statistics.
func (r *run) replayDecompose() {
	t := r.tr
	t.log = &phaseLog{phase: "decompose", main: r.workload == "decompose"}
	g := plcGraph()
	txt, tkcg := r.path("plc.txt"), r.path("plc.tkcg")
	if err := graph.SaveEdgeListFile(txt, g); err != nil {
		r.fail(err)
		return
	}
	reps := 3
	if t.log.main {
		reps = 8
	}
	for i := 0; i < reps; i++ {
		var err error
		t.call("graph.build_mapped", 0, i, func() { _, err = graph.BuildMappedFile(txt, tkcg) })
		r.attempt(err)
		id := t.open("graph.freeze_static", 0, i)
		s := graph.FreezeStatic(g)
		t.close(id)
		t.call("core.support", 0, i, func() { core.ComputeSupport(s, 0) })
		t.call("core.decompose_static", 0, i, func() { core.DecomposeStatic(s, core.Options{}) })
	}
	m, err := graph.OpenMapped(tkcg)
	if err != nil {
		r.fail(err)
		return
	}
	defer m.Close()
	for i := 0; i < reps; i++ {
		var res *extcore.Result
		t.call("extcore.decompose", 0, i, func() {
			res, err = extcore.Decompose(m.Static(), extcore.Options{MemBudget: externalBudget, TempDir: r.path("")})
		})
		r.attempt(err)
		if err == nil {
			t.count("extcore.spill_bytes", float64(res.Stats.SpillBytes))
			t.count("extcore.activations", float64(res.Stats.Activations))
			t.count("extcore.sweeps", float64(res.Stats.Sweeps))
		}
	}
}

// layerMetrics reduces the spans and counts to the per-layer metrics.
// Each metric comes from the workload's own phase where that phase
// reaches the layer, and from the probes otherwise.
func (r *run) layerMetrics() map[string]metric {
	t := r.tr
	spans := func(name string) sample {
		var own, other sample
		for _, s := range t.spans {
			if s.Name != name || s.Warm {
				continue
			}
			if s.Main {
				own = append(own, s.ms())
			} else {
				other = append(other, s.ms())
			}
		}
		if len(own) > 0 {
			return own
		}
		return other
	}
	counts := func(name string) sample {
		if own := t.counts[countKey{name, true}]; len(own) > 0 {
			return own
		}
		return t.counts[countKey{name, false}]
	}
	sum := func(s sample) float64 {
		total := 0.0
		for _, v := range s {
			total += v
		}
		return total
	}
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	put("server.read_ms", spans("server.read").median(), "ms")
	put("server.write_ms", spans("server.write").median(), "ms")
	put("server.decode_ms", spans("server.decode").median(), "ms")
	put("server.write_wait_ms", counts("server.write_wait_ms").median(), "ms")
	put("registry.apply_ms", spans("registry.apply").median(), "ms")
	put("registry.feed_ms", counts("registry.feed_ms").median(), "ms")
	put("registry.feed_events_per_write", counts("registry.feed_events_per_write").median(), "count")
	put("template.detect_ms", spans("template.detect").median(), "ms")
	put("view.publish_ms", spans("view.publish").median(), "ms")
	put("view.publish_alloc_kb", counts("view.publish_alloc_kb").median(), "KB")
	put("view.memo_build_ms", spans("view.memo_build").median(), "ms")
	hits, builds := len(spans("view.memo_hit")), len(spans("view.memo_build"))
	put("view.memo_hit_frac", float64(hits)/float64(max(1, hits+builds)), "ratio")
	put("dynamic.apply_ms", spans("dynamic.apply").median(), "ms")
	put("dynamic.freeze_view_ms", spans("dynamic.freeze_view").median(), "ms")
	ops := sum(counts("dynamic.ops"))
	put("dynamic.triangles_per_op", sum(counts("dynamic.triangles"))/ops, "count")
	put("dynamic.edges_visited_per_op", sum(counts("dynamic.edges_visited"))/ops, "count")
	put("graph.freeze_static_ms", spans("graph.freeze_static").median(), "ms")
	put("graph.build_mapped_ms", spans("graph.build_mapped").median(), "ms")
	support := spans("core.support").median()
	put("core.support_ms", support, "ms")
	put("core.peel_ms", spans("core.decompose_static").median()-support, "ms")
	put("extcore.decompose_ms", spans("extcore.decompose").median(), "ms")
	put("extcore.spill_bytes", counts("extcore.spill_bytes").median(), "bytes")
	put("extcore.activations", counts("extcore.activations").median(), "count")
	put("extcore.sweeps", counts("extcore.sweeps").median(), "count")
	put("harness.late_p99_ms", r.late.quantile(0.99), "ms")
	return out
}

// loadShare reports how much of its workload's main cost the layer the
// workload was chosen for carries, from the per-layer metrics.
func loadShare(workload string, m map[string]metric) map[string]float64 {
	ratio := func(a, b string) float64 { return m[a].Value / m[b].Value }
	switch workload {
	case "serve-read":
		return map[string]float64{"dynamic.freeze_view_ms/view.publish_ms": ratio("dynamic.freeze_view_ms", "view.publish_ms")}
	case "serve-feed":
		return map[string]float64{"registry.feed_ms/server.write_ms": ratio("registry.feed_ms", "server.write_ms")}
	case "churn":
		return map[string]float64{"dynamic.apply_ms/server.write_ms": ratio("dynamic.apply_ms", "server.write_ms")}
	default:
		return map[string]float64{"core.peel_ms/(support+peel)": m["core.peel_ms"].Value /
			(m["core.support_ms"].Value + m["core.peel_ms"].Value)}
	}
}

// spanSummary lists, per span name, the count and the median total and
// self time: a compact view of where the replayed time went.
func (t *tracer) spanSummary() map[string][3]float64 {
	total := map[string]sample{}
	self := map[string]sample{}
	for _, s := range t.spans {
		total[s.Name] = append(total[s.Name], s.ms())
		self[s.Name] = append(self[s.Name], float64(s.Self)/1e6)
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make(map[string][3]float64, len(names))
	for _, n := range names {
		out[n] = [3]float64{float64(len(total[n])), total[n].median(), self[n].median()}
	}
	return out
}
