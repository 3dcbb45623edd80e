package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"trikcore/internal/core"
	"trikcore/internal/extcore"
	"trikcore/internal/graph"
	"trikcore/internal/server"
)

// Phase sizes. A workload runs its own phase for --seconds; the other
// phases run at the fixed probe sizes below, only to supply the metrics
// the contract asks every workload to print (see README.md).
const (
	readWarm       = time.Second
	readProbe      = 5 * time.Second
	feedInterval   = 220 * time.Millisecond // the writer ≈ 45% busy at ≈ 100 ms of service
	feedWarm       = 2                      // writes
	feedProbe      = 30                     // writes, closed loop
	churnFrac      = 0.01
	churnWarm      = 4  // batches
	churnProbe     = 60 // batches
	decomposeWarm  = 2  // runs of each kind
	decomposeProbe = 6  // in-memory runs; half as many external runs
	externalBudget = 256 << 10
	setupReps      = 5
)

// phaseLog keeps what a live phase sent and saw, for the traced replay.
type phaseLog struct {
	phase string
	main  bool
	srv   *serverProc // the server the ops were sent to
	f     *fixture
	ops   []op
	outs  []outcome
	warm  int // leading ops excluded from the samples
}

// checkReply verifies one reply against what the op log allows: the
// status, the echo of a /kappa read, the edge count in /stats and
// /histogram (edges lists the counts the toggle log permits at that
// point), and the exact add/remove counts of a write.
func checkReply(o op, rep reply, edges map[int]bool) error {
	if rep.err != nil {
		return rep.err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", o.path, rep.status, bytes.TrimSpace(rep.body))
	}
	switch {
	case o.kind == opWrite:
		var r server.EdgesReply
		if err := json.Unmarshal(rep.body, &r); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		if r.Added != len(o.batch.Add) || r.Removed != len(o.batch.Remove) || rep.version == 0 {
			return fmt.Errorf("write: added %d removed %d version %d, want %d/%d",
				r.Added, r.Removed, rep.version, len(o.batch.Add), len(o.batch.Remove))
		}
	case o.path == "/stats":
		var r server.StatsReply
		if err := json.Unmarshal(rep.body, &r); err != nil || !edges[r.Edges] {
			return fmt.Errorf("stats: %d edges (%v)", r.Edges, err)
		}
	case o.path == "/histogram":
		var h map[string]int
		if err := json.Unmarshal(rep.body, &h); err != nil {
			return fmt.Errorf("histogram: %w", err)
		}
		n := 0
		for _, c := range h {
			n += c
		}
		if !edges[n] {
			return fmt.Errorf("histogram: counts sum to %d", n)
		}
	case o.path == "/plot.svg":
		if !bytes.Contains(rep.body, []byte("<svg")) {
			return fmt.Errorf("plot.svg: no <svg> element")
		}
	case o.path == "/plot.txt":
		if len(rep.body) == 0 {
			return fmt.Errorf("plot.txt: empty")
		}
	case o.kind == opArtifact:
		var cs []server.CommunityReply
		if err := json.Unmarshal(rep.body, &cs); err != nil {
			return fmt.Errorf("communities: %w", err)
		}
	default:
		var r server.KappaReply
		if err := json.Unmarshal(rep.body, &r); err != nil {
			return fmt.Errorf("kappa: %w", err)
		}
		if r.U != o.edge.U || r.V != o.edge.V || r.Kappa < 0 || r.CoCliqueSize != r.Kappa+2 {
			return fmt.Errorf("kappa: reply %+v for edge %v", r, o.edge)
		}
	}
	return nil
}

// readPhase drives the serve-read mix open loop at f's space. As the
// workload's own phase it reports every serve-read metric; as a probe it
// reports the read and artifact metrics only.
func (r *run) readPhase(srv *serverProc, prefix string, f *fixture, dur time.Duration, main bool) {
	ops := readOps(r.rng("read"), f, readWarm+dur)
	outs := openLoop(srv.client, srv.base+prefix, ops, maxConns, time.Now().Add(10*time.Millisecond))
	allowed := map[int]bool{len(f.edges): true, len(f.edges) + toggleBatch: true}
	var point, artifact, write series
	warm := 0
	for i, o := range ops {
		r.attempt(checkReply(o, outs[i].reply, allowed))
		if o.due < readWarm {
			warm = i + 1
			continue
		}
		r.late = append(r.late, ms(outs[i].late))
		switch o.kind {
		case opPoint:
			point.add(ms(outs[i].latency), outs[i].done)
		case opArtifact:
			artifact.add(ms(outs[i].latency), outs[i].done)
		default:
			write.add(ms(outs[i].latency), outs[i].done)
		}
	}
	r.logs = append(r.logs, &phaseLog{phase: "serve-read", main: main, srv: srv, f: f, ops: ops, outs: outs, warm: warm})
	r.latency("read", point, main)
	r.latency("artifact", artifact, main)
	if main {
		r.latency("write", write, main)
	}
}

// feedPhase writes toggle batches to f's space with one SSE subscriber
// armed and measures, per write, the lag from its due time to the first
// κ event at or past the write's version. As the workload's own phase
// the writes run open loop on feedInterval; as a probe they run closed
// loop, which sees the same service time without the idle gaps.
func (r *run) feedPhase(srv *serverProc, prefix string, f *fixture, dur time.Duration, main bool) {
	sub, err := subscribe(srv.base + prefix)
	if err != nil {
		r.fail(err)
		return
	}
	n := feedWarm + feedProbe
	if main {
		n = feedWarm + int(dur/feedInterval)
	}
	ops := feedOps(r.rng("feed"), f, n)
	var outs []outcome
	if main {
		outs = openLoop(srv.client, srv.base+prefix, ops, 1, time.Now().Add(10*time.Millisecond))
	} else {
		outs = closedLoop(srv.client, srv.base+prefix, ops)
	}
	var lastVersion uint64
	for i, o := range ops {
		r.attempt(checkReply(o, outs[i].reply, nil))
		lastVersion = max(lastVersion, outs[i].reply.version)
	}
	if !sub.waitVersion(lastVersion, 10*time.Second) {
		r.fail(fmt.Errorf("feed: no event for version %d within 10s", lastVersion))
	}
	events, err := sub.close()
	r.attempt(err)
	r.attempt(checkFeed(events, ops, outs))

	var lag, write series
	for i := range ops {
		if i < feedWarm {
			continue
		}
		v := outs[i].reply.version
		due := outs[i].done.Add(-outs[i].latency)
		for _, ev := range events {
			if ev.kind == "kappa" && ev.version >= v {
				lag.add(ms(ev.at.Sub(due)), ev.at)
				break
			}
		}
		write.add(ms(outs[i].latency), outs[i].done)
		if main {
			r.late = append(r.late, ms(outs[i].late))
		}
	}
	r.logs = append(r.logs, &phaseLog{phase: "serve-feed", main: main, srv: srv, f: f, ops: ops, outs: outs, warm: feedWarm})
	r.latency("feed_lag", lag, main)
	if main {
		r.latency("write", write, main)
	}
}

// checkFeed verifies the SSE stream: event ids are contiguous, and every
// write's version is carried by at least one κ event.
func checkFeed(events []sseEvent, ops []op, outs []outcome) error {
	if len(events) == 0 {
		return fmt.Errorf("feed: no events")
	}
	seen := make(map[uint64]bool)
	for i, ev := range events {
		if i > 0 && ev.id != events[i-1].id+1 {
			return fmt.Errorf("feed: event id %d follows %d", ev.id, events[i-1].id)
		}
		if ev.kind == "kappa" {
			seen[ev.version] = true
		}
	}
	for i := range ops {
		if v := outs[i].reply.version; !seen[v] {
			return fmt.Errorf("feed: no κ event for write version %d", v)
		}
	}
	return nil
}

// closedLoop sends ops one after another; each latency runs from its
// own send.
func closedLoop(c *http.Client, base string, ops []op) []outcome {
	outs := make([]outcome, len(ops))
	for i, o := range ops {
		sent := time.Now()
		rep := do(c, o.method(), base+o.path, o.body)
		done := time.Now()
		outs[i] = outcome{latency: done.Sub(sent), done: done, reply: rep}
	}
	return outs
}

// churnPhase posts 1%-churn batches closed loop from one client: for dur
// as the workload's own phase, churnProbe batches as a probe. A last,
// untimed batch undoes the open changes.
func (r *run) churnPhase(srv *serverProc, prefix string, f *fixture, dur time.Duration, main bool) {
	c := newChurner(newPicker(r.rng("churn"), f), churnFrac)
	var ops []op
	var outs []outcome
	var write, secs series
	repeat(churnWarm, main, dur, churnProbe, func(timed bool) {
		o := c.next()
		out := closedLoop(srv.client, srv.base+prefix, []op{o})[0]
		r.attempt(checkReply(o, out.reply, nil))
		if timed {
			write.add(ms(out.latency), out.done)
			secs.add(out.latency.Seconds(), out.done)
		}
		ops, outs = append(ops, o), append(outs, out)
	})
	o := c.undo()
	out := closedLoop(srv.client, srv.base+prefix, []op{o})[0]
	r.attempt(checkReply(o, out.reply, nil))
	ops, outs = append(ops, o), append(outs, out)

	r.logs = append(r.logs, &phaseLog{phase: "churn", main: main, srv: srv, f: f, ops: ops, outs: outs, warm: churnWarm})
	r.latency("write", write, main)
	q := quiet(secs, r.steal)
	r.set("update_ops_per_s", float64(4*c.quarter)/q.median(), "1/s", len(q), 0, main)
}

// verify ends a serving run: it reads back κ of every edge the op logs
// say srv holds for f and compares each with a from-scratch
// decomposition of that edge set.
func (r *run) verify(srv *serverProc, prefix string, f *fixture) {
	live := r.liveEdges(srv, f)
	r.readback(srv, prefix, live, referenceKappa(live))
}

// liveEdges applies every write sent to srv for f, in order, to f's base
// edge set.
func (r *run) liveEdges(srv *serverProc, f *fixture) []graph.Edge {
	set := make(map[graph.Edge]bool, len(f.base))
	for e := range f.base {
		set[e] = true
	}
	for _, lg := range r.logs {
		if lg.srv != srv || lg.f != f {
			continue
		}
		for _, o := range lg.ops {
			if o.kind != opWrite {
				continue
			}
			for _, p := range o.batch.Remove {
				delete(set, graph.NewEdge(p[0], p[1]))
			}
			for _, p := range o.batch.Add {
				set[graph.NewEdge(p[0], p[1])] = true
			}
		}
	}
	live := make([]graph.Edge, 0, len(set))
	for e := range set {
		live = append(live, e)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Less(live[j]) })
	return live
}

// readback fetches κ of every edge in live from the space and compares
// each with want. The reads are pipelined over maxConns connections, so
// checking every edge stays cheap next to the measured phase.
func (r *run) readback(srv *serverProc, prefix string, live []graph.Edge, want map[graph.Edge]int32) {
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var idx []int
			for i := w; i < len(live); i += maxConns {
				idx = append(idx, i)
			}
			pipelined(srv.base, prefix, idx, live, func(i int, rep reply) {
				e := live[i]
				o := op{kind: opPoint, path: "/kappa", edge: e}
				err := checkReply(o, rep, nil)
				if err == nil {
					var kr server.KappaReply
					if err = json.Unmarshal(rep.body, &kr); err == nil && kr.Kappa != want[e] {
						err = fmt.Errorf("readback: κ%v = %d, want %d", e, kr.Kappa, want[e])
					}
				}
				errs[i] = err
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		r.attempt(err)
	}
	rep := do(srv.client, http.MethodGet, srv.base+prefix+"/stats", nil)
	r.attempt(checkReply(op{kind: opPoint, path: "/stats"}, rep, map[int]bool{len(live): true}))
}

// pipelined sends GET /kappa for each edge live[i], i in idx, down one
// HTTP/1.1 connection without waiting for replies, and hands each reply
// to fn in order. A broken connection fails every unanswered read.
func pipelined(base, prefix string, idx []int, live []graph.Edge, fn func(i int, rep reply)) {
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		for _, i := range idx {
			fn(i, reply{err: err})
		}
		return
	}
	written := make(chan struct{})
	defer func() { <-written }()
	defer conn.Close() // runs first: also unblocks the writer if the reader stopped early
	go func() {
		defer close(written)
		// A failed write shows as a failed read of every unanswered edge.
		bw := bufio.NewWriter(conn)
		for _, i := range idx {
			if _, err := fmt.Fprintf(bw, "GET %s/kappa?u=%d&v=%d HTTP/1.1\r\nHost: perfbench\r\n\r\n", prefix, live[i].U, live[i].V); err != nil {
				return
			}
		}
		err := bw.Flush()
		_ = err
	}()
	br := bufio.NewReader(conn)
	for n, i := range idx {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			for _, j := range idx[n:] {
				fn(j, reply{err: err})
			}
			return
		}
		body, err := io.ReadAll(resp.Body)
		fn(i, reply{status: resp.StatusCode, body: body, err: errors.Join(err, resp.Body.Close())})
	}
}

// decomposePhase runs Algorithm 1 in process on the power-law fixture,
// FreezeStatic plus DecomposeStatic at default parallelism, then the
// partitioned out-of-core peel over the same graph's mapped CSR, each
// repeated and reported as edges per second of the median run. Every
// external result is compared with the in-memory κ element by element.
func (r *run) decomposePhase(dur time.Duration, main bool) {
	g := plcGraph()
	txt := r.path("plc.txt")
	tkcg := r.path("plc.tkcg")
	if err := graph.SaveEdgeListFile(txt, g); err != nil {
		r.fail(err)
		return
	}
	var setup sample
	var mapped *graph.Mapped
	reps := 1
	if main {
		reps = setupReps
	}
	for i := 0; i < reps; i++ {
		if mapped != nil {
			if err := mapped.Close(); err != nil {
				r.fail(err)
				return
			}
		}
		t := time.Now()
		_, err := graph.BuildMappedFile(txt, tkcg)
		if err == nil {
			mapped, err = graph.OpenMapped(tkcg)
		}
		if err != nil {
			r.fail(err)
			return
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	defer mapped.Close()
	if main {
		r.set("setup_s", setup.median(), "s", len(setup), 0, true)
	}

	m := float64(g.NumEdges())
	var inMem, ext series
	var ref *core.Decomposition
	repeat(decomposeWarm, main, dur*2/3, decomposeProbe, func(timed bool) {
		t := time.Now()
		d := core.DecomposeStatic(graph.FreezeStatic(g), core.Options{})
		el := time.Since(t)
		if ref == nil {
			ref = d
		}
		r.attempt(sameKappa(ref.S, ref.Kappa, d.S, d.Kappa))
		if timed {
			inMem.add(el.Seconds(), time.Now())
		}
	})
	mst := mapped.Static()
	repeat(decomposeWarm, main, dur/3, decomposeProbe/2, func(timed bool) {
		t := time.Now()
		res, err := extcore.Decompose(mst, extcore.Options{MemBudget: externalBudget, TempDir: r.path("")})
		el := time.Since(t)
		if err == nil && !res.Stats.External {
			err = fmt.Errorf("extcore: budget %d did not force the partitioned path", externalBudget)
		}
		if err == nil {
			err = sameKappa(ref.S, ref.Kappa, mst, res.Kappa)
		}
		r.attempt(err)
		if timed {
			ext.add(el.Seconds(), time.Now())
		}
	})
	qi, qe := quiet(inMem, r.steal), quiet(ext, r.steal)
	r.set("decompose_edges_per_s", m/qi.median(), "1/s", len(qi), 0, main)
	r.set("external_edges_per_s", m/qe.median(), "1/s", len(qe), 0, main)
	if main {
		rss, err := vmHWMMB("self")
		r.attempt(err)
		r.set("peak_rss_mb", rss, "MB", 1, 0, true)
	}
}

// repeat calls fn for warm untimed iterations, then for timed ones: until
// dur has passed as the workload's own phase (main), n of them as a
// probe. At least one timed iteration runs.
func repeat(warm int, main bool, dur time.Duration, n int, fn func(timed bool)) {
	for i := 0; i < warm; i++ {
		fn(false)
	}
	deadline := time.Now().Add(dur)
	for i := 0; i == 0 || (main && time.Now().Before(deadline)) || (!main && i < n); i++ {
		fn(true)
	}
}

// sameKappa compares two κ assignments edge by edge, matching edges by
// their endpoints rather than assuming equal dense numbering.
func sameKappa(sa *graph.Static, ka []int32, sb *graph.Static, kb []int32) error {
	if sa.NumEdges() != sb.NumEdges() || len(ka) != len(kb) {
		return fmt.Errorf("κ: %d edges against %d", sa.NumEdges(), sb.NumEdges())
	}
	for i := range kb {
		e := sb.EdgeAt(int32(i))
		j := int32(i)
		if sa.EdgeAt(j) != e {
			if j = sa.EdgeIndex(sa.Pos[e.U], sa.Pos[e.V]); j < 0 {
				return fmt.Errorf("κ: edge %v missing", e)
			}
		}
		if ka[j] != kb[i] {
			return fmt.Errorf("κ%v = %d, want %d", e, kb[i], ka[j])
		}
	}
	return nil
}
