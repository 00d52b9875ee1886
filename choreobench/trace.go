package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phases of one run. Samples are tagged with the phase they were taken
// in, so each per-layer metric can be read from the phase that also
// produces the end-to-end metric it explains.
const (
	phaseSetup = iota // provisioning and warm-up
	phaseSlice        // fixed op count on the recovery store
	phaseMain         // the timed closed loop
	phaseProbe        // fixed op counts of the other workloads' classes
	numPhases
)

var phaseNames = [numPhases]string{"setup", "slice", "main", "probe"}

// requestIDHeader carries the client span ID to the handler wrapper,
// which records its span as that span's child.
const requestIDHeader = "X-Bench-Request"

// span is one timed interval. Client spans (kind "client") and handler
// spans ("handler") carry the route class in Name; replay spans carry
// the public function they timed.
type span struct {
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent,omitempty"`
	Kind      string `json:"kind"`
	Name      string `json:"name"`
	Phase     string `json:"phase"`
	Start     int64  `json:"startNs"`
	End       int64  `json:"endNs"`
	ReqBytes  int64  `json:"reqBytes,omitempty"`
	RespBytes int64  `json:"respBytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span and per-layer sample of a traced run in
// memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	seq   atomic.Uint64
	phase atomic.Int32

	mu      sync.Mutex
	spans   []span
	samples [numPhases]map[string]floats
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	for i := range t.samples {
		t.samples[i] = map[string]floats{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) setPhase(p int) {
	if t != nil {
		t.phase.Store(int32(p))
	}
}

func (t *tracer) record(s span) {
	s.Phase = phaseNames[t.phase.Load()]
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// sample adds one per-layer value to the current phase.
func (t *tracer) sample(metric string, v float64) {
	p := t.phase.Load()
	t.mu.Lock()
	t.samples[p][metric] = append(t.samples[p][metric], v)
	t.mu.Unlock()
}

type spanIDKey struct{}

// op mints the client span ID of the next request made with the
// returned context, so replays of that op can name it as parent.
func (t *tracer) op(ctx context.Context) (context.Context, uint64) {
	if t == nil {
		return ctx, 0
	}
	id := t.seq.Add(1)
	return context.WithValue(ctx, spanIDKey{}, id), id
}

// timed runs f as a replay span under parent and returns its duration.
func (t *tracer) timed(parent uint64, name string, f func()) time.Duration {
	return t.timedKind(parent, "replay", name, f)
}

// timedKind is timed with the span kind given: "store" marks the
// replay of the store call the op's handler made.
func (t *tracer) timedKind(parent uint64, kind, name string, f func()) time.Duration {
	start := t.now()
	f()
	end := t.now()
	t.record(span{ID: t.seq.Add(1), Parent: parent, Kind: kind, Name: name, Start: start, End: end})
	return time.Duration(end - start)
}

// us records f's duration in microseconds as a sample of metric.
func (t *tracer) us(parent uint64, metric string, f func()) {
	t.sample(metric, float64(t.timed(parent, metric, f))/1e3)
}

// pick returns the samples of metric from the first listed phase that
// has any.
func (t *tracer) pick(metric string, phases ...int) floats {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range phases {
		if s := t.samples[p][metric]; len(s) > 0 {
			return s
		}
	}
	return nil
}

// routeClass names the op class of a /v2/ request.
func routeClass(method, path string) string {
	switch {
	case strings.HasSuffix(path, "/check"):
		return "check"
	case strings.HasSuffix(path, "/evolve"):
		return "evolve"
	case strings.HasSuffix(path, "/commit"):
		return "commit"
	case strings.HasSuffix(path, "/instances:events"):
		return "ingest"
	case strings.HasSuffix(path, "/parties:batch"):
		return "batch"
	case strings.HasSuffix(path, "/migrations"):
		return "migrate"
	case strings.HasSuffix(path, "/instances"):
		return "instances"
	case path == "/v2/stats":
		return "stats"
	case path == "/v2/choreographies":
		return "create"
	case method == http.MethodGet && strings.Count(path, "/") == 3:
		return "get"
	}
	return "other"
}

// tracingTransport records a client span per request: from the
// RoundTrip call until the caller closes the response body, with the
// body sizes seen on the wire.
type tracingTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(spanIDKey{}).(uint64)
	if id == 0 {
		id = t.tr.seq.Add(1)
	}
	req = req.Clone(req.Context())
	req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	s := span{ID: id, Kind: "client", Name: routeClass(req.Method, req.URL.Path), Start: t.tr.now(), ReqBytes: req.ContentLength}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = t.tr.now()
		t.tr.record(s)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		s.End, s.RespBytes = t.tr.now(), n
		t.tr.record(s)
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// wrapHandler records a handler span per request, as the child of the
// client span named in the request-ID header.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		t.record(span{ID: t.seq.Add(1), Parent: parent, Kind: "handler",
			Name: routeClass(r.Method, r.URL.Path), Start: start, End: t.now()})
	})
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
