package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail value:
// "_tail" is the highest nearest-rank percentile with at least this many
// samples beyond it, so it never rests on a handful of outliers.
const tailBeyond = 10

// sample is a set of raw per-operation measurements. Quantiles are taken
// exactly, by nearest rank over the sorted values, never from histogram
// buckets.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the nearest-rank p-quantile (0 < p <= 1): the smallest
// value with at least p·n values at or below it.
func (s sample) quantile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	r := int(math.Ceil(p * float64(len(c))))
	if r < 1 {
		r = 1
	}
	return c[r-1]
}

func (s sample) median() float64 { return s.quantile(0.5) }

// tail returns the value at the highest rank with tailBeyond samples
// above it and the percentile that rank resolves to. With too few
// samples for any such rank it falls back to the maximum (percentile
// 100), which callers avoid by sizing their phases.
func (s sample) tail() (value, pct float64) {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return math.NaN(), 0
	}
	r := n - tailBeyond
	if r < 1 {
		return c[n-1], 100
	}
	return c[r-1], 100 * float64(r) / float64(n)
}

// series is one metric's raw samples in arrival order, each with the
// time its operation ended.
type series struct {
	v  sample
	at []time.Time
}

func (s *series) add(v float64, at time.Time) {
	s.v = append(s.v, v)
	s.at = append(s.at, at)
}

// quietWindow is how far back from a sample's end its steal is read.
const quietWindow = 100 * time.Millisecond

// quiet returns, in arrival order, the samples of s taken while the host
// stole no CPU: those with no steal tick in the quietWindow before they
// ended. When fewer than a tenth of them (or than 40, for short series)
// qualify, it keeps that many of the least-stolen ones instead. The
// 2-core host is shared with other tenants, whose bursts of steal would
// otherwise decide a run's figures; steal depends on the neighbours, not
// on the program.
func quiet(s series, st *stealClock) sample {
	rates := make(sample, len(s.v))
	idx := make([]int, len(s.v))
	for i, at := range s.at {
		rates[i] = st.rate(at.Add(-quietWindow), at)
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] < rates[idx[b]] })
	keep := max(len(idx)/10, min(len(idx), 40))
	for keep < len(idx) && rates[idx[keep]] == 0 {
		keep++
	}
	idx = idx[:keep]
	sort.Ints(idx)
	out := make(sample, len(idx))
	for j, i := range idx {
		out[j] = s.v[i]
	}
	return out
}

// tailChunk is the chunk size of chunkedTail, so a chunk's tail is its p90.
const tailChunk = 100

// chunkedTail cuts s, in arrival order, into consecutive chunks of
// tailChunk samples (one chunk when s is shorter) and returns the median
// of the chunks' tails, with the percentile a chunk's tail resolves to.
// One tail over thousands of sub-millisecond reads would be their p99.6:
// the handful of reads a neighbour's burst delayed, not the program.
func (s sample) chunkedTail() (value, pct float64) {
	k := max(1, len(s)/tailChunk)
	tails := make(sample, k)
	for i := range tails {
		tails[i], pct = s[i*len(s)/k : (i+1)*len(s)/k].tail()
	}
	return tails.median(), pct
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
