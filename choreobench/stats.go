package main

import (
	"math"
	"sort"
	"time"
)

// failedNS stands in for the latency of a failed op: a failure misses
// every latency limit, so it sorts above every measured sample.
const failedNS = math.MaxInt64

// series collects the latencies of one op class, in completion order,
// with the completion time of each op.
type series struct {
	ns        []int64
	at        []time.Duration // since the recorder's start
	attempted int
	failed    int
}

// recorder holds one client's series by op class. Each client owns
// its recorder, so recording takes no lock.
type recorder struct {
	start   time.Time
	elapsed time.Duration // set when the phase ends
	classes map[string]*series
}

func newRecorder() *recorder {
	return &recorder{start: time.Now(), classes: map[string]*series{}}
}

func (r *recorder) class(name string) *series {
	s := r.classes[name]
	if s == nil {
		s = &series{}
		r.classes[name] = s
	}
	return s
}

// observe records the outcome of one op of a class that started at t0.
func (r *recorder) observe(name string, t0 time.Time, err error) {
	if err != nil {
		r.fail(name)
		return
	}
	now := time.Now()
	s := r.class(name)
	s.attempted++
	s.ns = append(s.ns, int64(now.Sub(t0)))
	s.at = append(s.at, now.Sub(r.start))
}

// fail records a failed op of a class.
func (r *recorder) fail(name string) {
	s := r.class(name)
	s.attempted++
	s.failed++
	s.ns = append(s.ns, failedNS)
	s.at = append(s.at, time.Since(r.start))
}

// clients is the pair of recorders of one phase.
type clients [2]*recorder

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(rank, 0)]
}

// slices cuts one phase's latencies into n segments of equal length by
// completion time, so that a timed phase yields segments as a probe's
// rounds do.
func (cs clients) slices(n int) []clients {
	out := make([]clients, n)
	for c, r := range cs {
		for k := range out {
			out[k][c] = newRecorder()
		}
		for name, s := range r.classes {
			for i, at := range s.at {
				k := min(int(int64(at)*int64(n)/int64(max(r.elapsed, 1))), n-1)
				ps := out[k][c].class(name)
				ps.ns = append(ps.ns, s.ns[i])
			}
		}
	}
	return out
}

// segmentQuantiles returns, for each segment, the q-quantile latency
// in ns of all ops of class that both clients completed in it, and the
// fewest samples any segment had beyond its quantile. A segment is a
// probe round or a time slice of the timed phase. Pooling a whole
// segment gives each quantile many samples beyond it; taking the
// median over segments keeps a burst of outside load, which slows one
// segment, from moving the figure.
func segmentQuantiles(segs []clients, class string, q float64) (floats, int) {
	var per floats
	fewest := math.MaxInt
	for _, cs := range segs {
		var ns []int64
		for _, r := range cs {
			ns = append(ns, r.class(class).ns...)
		}
		if len(ns) == 0 {
			fewest = 0
			continue
		}
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		per = append(per, float64(quantile(ns, q)))
		fewest = min(fewest, len(ns)-int(math.Ceil(q*float64(len(ns)))))
	}
	return per, fewest
}

// windowRate returns the interquartile mean, over the whole windows of
// the given length in every round, of the successful ops of the listed
// classes completed per second by both clients (weighted by weight per
// op). Dropping the slowest and fastest quarter keeps a burst of
// outside load from moving the figure.
func windowRate(rounds []clients, window time.Duration, weight float64, classes ...string) float64 {
	var counts []float64
	for _, cs := range rounds {
		n := int(cs[0].elapsed / window)
		round := make([]float64, n)
		for _, r := range cs {
			for _, c := range classes {
				s := r.class(c)
				for k, d := range s.at {
					if i := int(d / window); i < n && s.ns[k] != failedNS {
						round[i] += weight
					}
				}
			}
		}
		counts = append(counts, round...)
	}
	n := len(counts)
	sort.Float64s(counts)
	return floats(counts[n/4:n-n/4]).mean() / window.Seconds()
}

// floats is an unordered sample of float values.
type floats []float64

func (f floats) median() float64 {
	if len(f) == 0 {
		return 0
	}
	s := append(floats(nil), f...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func (f floats) mean() float64 {
	if len(f) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range f {
		sum += v
	}
	return sum / float64(len(f))
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) floats {
	out := make(floats, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	fs := make(floats, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(fs.median())
}
