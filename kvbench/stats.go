package main

import (
	"fmt"
	"math"
	"sort"

	"specpmt/internal/obs"
	"specpmt/internal/trace"
)

// minTail is the number of samples that must lie beyond a reported p99.
const minTail = 10

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// Chunking: p50s are medians over up to maxChunks consecutive chunks of at
// least p50Chunk completions; p99s over chunks of at least tailChunk,
// enough for ten samples beyond each chunk's p99.
const (
	p50Chunk  = 100
	tailChunk = 1000
	maxChunks = 16
)

// latency summarises one op type's window: completions per second over the
// whole window, and p50 and p99 in µs, each the median over consecutive
// chunks of completions, so a burst of host noise in one chunk does not
// move it.
type latency struct {
	n              int
	rate, p50, p99 float64
}

// summarise summarises samples completed in a window of secs seconds.
func summarise(name string, s samples, secs float64) (latency, error) {
	l := latency{n: s.n()}
	if l.n < tailChunk {
		return l, fmt.Errorf("%s: %d samples, need %d for a p99 with %d beyond it", name, l.n, tailChunk, minTail)
	}
	order := make([]int, l.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return s.done[order[i]] < s.done[order[j]] })
	l.rate = float64(l.n) / secs
	chunkQuantile := func(size int, q float64) float64 {
		k := min(maxChunks, l.n/size)
		var qs []float64
		for c := 0; c < k; c++ {
			idx := order[c*l.n/k : (c+1)*l.n/k]
			lat := make([]int64, len(idx))
			for i, j := range idx {
				lat[i] = s.lat[j]
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			qs = append(qs, float64(quantile(lat, q))/1e3)
		}
		return median(qs)
	}
	l.p50 = chunkQuantile(p50Chunk, 0.50)
	l.p99 = chunkQuantile(tailChunk, 0.99)
	return l, nil
}

// histDelta returns b minus a, bucket by bucket.
func histDelta(a, b *obs.HistSnapshot) *obs.HistSnapshot {
	d := &obs.HistSnapshot{}
	if b == nil {
		return d
	}
	*d = *b
	if a != nil {
		for i := range d.Counts {
			d.Counts[i] -= a.Counts[i]
		}
		d.Count -= a.Count
		d.Sum -= a.Sum
	}
	return d
}

// histQuantile estimates a quantile from power-of-two buckets,
// interpolating linearly inside the bucket that holds the rank.
func histQuantile(h *obs.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := trace.BucketBounds(i)
			return float64(lo) + (rank-seen)/float64(c)*float64(hi-lo)
		}
		seen += float64(c)
	}
	lo, _ := trace.BucketBounds(len(h.Counts) - 1)
	return float64(lo)
}

func histMean(h *obs.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// samples are one op type's timed completions: completion time and
// latency, in ns.
type samples struct{ done, lat []int64 }

func (s *samples) add(done, lat int64) {
	s.done = append(s.done, done)
	s.lat = append(s.lat, lat)
}

func (s *samples) merge(o *samples) {
	s.done = append(s.done, o.done...)
	s.lat = append(s.lat, o.lat...)
}

func (s *samples) n() int { return len(s.lat) }
