package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"trikcore/internal/core"
	"trikcore/internal/dataset"
	"trikcore/internal/dynamic"
	"trikcore/internal/gen"
	"trikcore/internal/graph"
	"trikcore/internal/server"
)

// fixture is one graph the benchmark serves or decomposes. The graphs
// come from internal/dataset and internal/gen with their own fixed
// seeds, so nothing is downloaded and every run sees the same graph;
// --seed drives only the operations applied to it.
type fixture struct {
	name  string
	g     *graph.Graph
	edges []graph.Edge // base edge set, sorted
	verts []graph.Vertex
	base  map[graph.Edge]bool
	file  string // edge-list file a server loads
}

// Fixture sizes: the Astro-Author stand-in at 20% (38,194 edges), the
// full PPI stand-in (15,147 edges) and the 100,445-edge power-law graph.
const (
	astroScale = 0.2
	plcN, plcM = 10_050, 10
	plcP       = 0.5
	plcSeed    = 42
)

func astroGraph() *graph.Graph {
	d, _ := dataset.ByName("Astro-Author")
	return d.GenerateAt(astroScale)
}

func ppiGraph() *graph.Graph {
	d, _ := dataset.ByName("PPI")
	return d.Graph()
}

func plcGraph() *graph.Graph { return gen.PowerLawCluster(plcN, plcM, plcP, plcSeed) }

// newFixture indexes g and, when dir is not empty, writes it as an edge
// list for a server to load.
func newFixture(name string, g *graph.Graph, dir string) (*fixture, error) {
	f := &fixture{name: name, g: g, edges: g.Edges(), verts: g.Vertices()}
	f.base = make(map[graph.Edge]bool, len(f.edges))
	for _, e := range f.edges {
		f.base[e] = true
	}
	if dir != "" {
		f.file = filepath.Join(dir, name+".txt")
		if err := graph.SaveEdgeListFile(f.file, g); err != nil {
			return nil, fmt.Errorf("write fixture %s: %w", name, err)
		}
	}
	return f, nil
}

// referenceKappa decomposes an edge set from scratch with
// core.DecomposeStatic: the oracle every served κ is checked against.
func referenceKappa(edges []graph.Edge) map[graph.Edge]int32 {
	g := graph.New()
	for _, e := range edges {
		g.AddEdgeE(e)
	}
	s := graph.FreezeStatic(g)
	d := core.DecomposeStatic(s, core.Options{})
	out := make(map[graph.Edge]int32, len(d.Kappa))
	for i, k := range d.Kappa {
		out[s.EdgeAt(int32(i))] = k
	}
	return out
}

// opKind classifies an operation for latency accounting.
type opKind int

const (
	opPoint    opKind = iota // GET /kappa, /stats, /histogram
	opArtifact               // GET /plot.svg, /plot.txt, /communities
	opWrite                  // POST /edges
)

// op is one generated request. path is relative to the graph space's
// prefix. Writes carry their batch both as the JSON body sent over HTTP
// and as the request value the in-process replay applies.
type op struct {
	due   time.Duration // send time, as an offset from the phase start (open loop)
	kind  opKind
	path  string
	edge  graph.Edge // the edge a /kappa read names
	batch *server.EdgesRequest
	body  []byte
}

func writeOp(req server.EdgesRequest) op {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of int pairs always marshals
	}
	return op{kind: opWrite, path: "/edges", batch: &req, body: body}
}

// edgeOps flattens a request the way the server does: removals first,
// then additions.
func edgeOps(req *server.EdgesRequest) []dynamic.EdgeOp {
	ops := make([]dynamic.EdgeOp, 0, len(req.Add)+len(req.Remove))
	for _, p := range req.Remove {
		ops = append(ops, dynamic.EdgeOp{U: p[0], V: p[1], Del: true})
	}
	for _, p := range req.Add {
		ops = append(ops, dynamic.EdgeOp{U: p[0], V: p[1]})
	}
	return ops
}

// picker draws seeded edges over one fixture. Fresh edges join two
// uniformly chosen vertices that are not adjacent in the base graph.
// An edge stays taken until its change is undone, so no batch names an
// edge another pending change holds, and every change takes effect.
type picker struct {
	rng   *rand.Rand
	f     *fixture
	taken map[graph.Edge]bool
}

func newPicker(rng *rand.Rand, f *fixture) *picker {
	return &picker{rng: rng, f: f, taken: make(map[graph.Edge]bool)}
}

func (p *picker) fresh(n int) [][2]graph.Vertex {
	out := make([][2]graph.Vertex, 0, n)
	for len(out) < n {
		u := p.f.verts[p.rng.Intn(len(p.f.verts))]
		v := p.f.verts[p.rng.Intn(len(p.f.verts))]
		if u == v {
			continue
		}
		e := graph.NewEdge(u, v)
		if p.f.base[e] || p.taken[e] {
			continue
		}
		p.taken[e] = true
		out = append(out, [2]graph.Vertex{e.U, e.V})
	}
	return out
}

// existing draws n distinct base edges not already handed out.
func (p *picker) existing(n int) [][2]graph.Vertex {
	out := make([][2]graph.Vertex, 0, n)
	for len(out) < n {
		e := p.f.edges[p.rng.Intn(len(p.f.edges))]
		if p.taken[e] {
			continue
		}
		p.taken[e] = true
		out = append(out, [2]graph.Vertex{e.U, e.V})
	}
	return out
}

// toggleBatch is the size of the serving workloads' write batches.
const toggleBatch = 10

// toggles yields the write stream of the serving workloads: batch 2i
// adds toggleBatch fresh edges, batch 2i+1 removes the same edges, so
// the edge count returns to its start every two writes.
type toggles struct {
	p       *picker
	pending [][2]graph.Vertex
}

func (t *toggles) next() op {
	if t.pending != nil {
		o := writeOp(server.EdgesRequest{Remove: t.pending})
		t.pending = nil
		return o
	}
	t.pending = t.p.fresh(toggleBatch)
	return writeOp(server.EdgesRequest{Add: t.pending})
}

// The serve-read traffic. Memo hits of /plot.txt and /communities take
// about 0.45 ms here and of the 270 KB /plot.svg about 1 ms; a rebuild
// after a write takes 1.5 to 9 ms. With the three equally likely, 64
// artifact reads per write make rebuilds under 5% of them, so the
// artifact p50 falls among the small hits and the p90 tail among the
// SVG hits, each well inside one mode.
const (
	readRate     = 400 // mean arrivals per second
	writeEvery   = 160 // one toggle write every writeEvery operations
	artifactPct  = 40  // share of reads that fetch a whole-graph artifact
	zipfS        = 1.1 // skew of the edge popularity of /kappa reads
	communitiesK = 12  // the level /communities reads ask for
)

// readOps generates an open-loop read-mostly schedule of length dur over
// f. Arrivals are spaced by the mean interval times a uniform factor in
// [0.5, 1.5): bounded bursts, no long gaps. Writes sit at fixed positions
// so consecutive toggles are never close enough to overtake each other.
// The schedule always ends with a removal, so the graph ends where it
// started.
func readOps(rng *rand.Rand, f *fixture, dur time.Duration) []op {
	perm := rng.Perm(len(f.edges))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(f.edges)-1))
	tg := &toggles{p: newPicker(rng, f)}
	mean := float64(time.Second) / readRate
	var ops []op
	var at time.Duration
	for i := 0; ; i++ {
		at += time.Duration(mean * (0.5 + rng.Float64()))
		if at >= dur {
			break
		}
		var o op
		switch {
		case (i+1)%writeEvery == 0:
			o = tg.next()
		case rng.Intn(100) < artifactPct:
			o = op{kind: opArtifact, path: [...]string{"/plot.svg", "/plot.txt", fmt.Sprintf("/communities?k=%d", communitiesK)}[rng.Intn(3)]}
		default:
			switch r := rng.Intn(10); {
			case r < 6:
				e := f.edges[perm[zipf.Uint64()]]
				o = op{kind: opPoint, path: fmt.Sprintf("/kappa?u=%d&v=%d", e.U, e.V), edge: e}
			case r < 8:
				o = op{kind: opPoint, path: "/stats"}
			default:
				o = op{kind: opPoint, path: "/histogram"}
			}
		}
		o.due = at
		ops = append(ops, o)
	}
	if tg.pending != nil {
		o := tg.next()
		o.due = at
		ops = append(ops, o)
	}
	return ops
}

// feedOps generates n toggle writes over f, spaced feedInterval × [0.5, 1.5).
func feedOps(rng *rand.Rand, f *fixture, n int) []op {
	tg := &toggles{p: newPicker(rng, f)}
	ops := make([]op, 0, n+1)
	var at time.Duration
	for i := 0; i < n || tg.pending != nil; i++ {
		at += time.Duration(float64(feedInterval) * (0.5 + rng.Float64()))
		o := tg.next()
		o.due = at
		ops = append(ops, o)
	}
	return ops
}

// churner yields churn batches over f. Each batch undoes the previous
// batch (re-inserting the base edges it deleted, deleting the fresh edges
// it inserted) and makes as many new changes, so every batch has the
// same make-up — a quarter each of base deletes, base re-inserts, fresh
// inserts and fresh deletes — the edge count never moves, and undo
// returns the graph to its start. Alternating a batch with its exact
// inverse instead would split the latencies into a cheap and an
// expensive mode, with the median sitting on the boundary between them.
type churner struct {
	p        *picker
	quarter  int
	del, ins [][2]graph.Vertex // the previous batch's new changes
}

func newChurner(p *picker, frac float64) *churner {
	return &churner{p: p, quarter: int(frac * float64(len(p.f.edges)) / 4)}
}

func (c *churner) next() op {
	del, ins := c.p.existing(c.quarter), c.p.fresh(c.quarter)
	o := c.batch(append(del, c.ins...), append(ins, c.del...))
	c.del, c.ins = del, ins
	return o
}

func (c *churner) undo() op {
	o := c.batch(c.ins, c.del)
	c.del, c.ins = nil, nil
	return o
}

// batch releases the previous batch's edges for later draws.
func (c *churner) batch(remove, add [][2]graph.Vertex) op {
	for _, e := range append(c.del, c.ins...) {
		delete(c.p.taken, graph.NewEdge(e[0], e[1]))
	}
	return writeOp(server.EdgesRequest{Remove: remove, Add: add})
}
