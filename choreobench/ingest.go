package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/scenario"
	"repro/internal/server"
)

// Ingest workload shape.
const (
	batchSize = 64
	// episodeEvery: every episodeEvery-th op of client 0 commits or
	// reverts a scripted episode on the choreography it streams to.
	episodeEvery = 16
	// statsEvery: every statsEvery-th op of client 1 scrapes /v2/stats.
	statsEvery = 32
)

// ingestWorld streams events of fresh conversations — generations of
// the scripted traces, interleaved — into one choreography per corpus
// scenario, each already tracking factor replicas of the scripted
// instances.
type ingestWorld struct {
	b       *bench
	e       *env
	prefix  string
	chors   []*ingestChor
	streams [2][]*stream // per client, per choreography
}

type ingestChor struct {
	id      string
	cs      *corpusScenario
	version uint64
	// applied is the episode committed on top of the base processes;
	// only client 0 changes it.
	applied *corpusEpisode
}

// stream is one client's event stream into one choreography: the
// interleaved traces of generation gen, of which next events are sent.
type stream struct {
	client int
	chor   *ingestChor
	gen    int
	events []streamEvent
	next   int
	// lost names conversations with events in a failed batch; their
	// server-side state is unknown, so verify skips them.
	lost map[string]bool
}

// streamEvent is one event of a fresh conversation replaying scripted
// instance tmpl; pos is its index in that trace.
type streamEvent struct {
	party, id string
	label     label.Label
	tmpl, pos int
}

func buildIngest(ctx context.Context, b *bench, e *env, prefix string, factor int) (world, error) {
	w := &ingestWorld{b: b, e: e, prefix: prefix}
	for _, cs := range b.kit.scenarios {
		ch := &ingestChor{id: prefix + "ing-" + cs.sc.Name, cs: cs, version: 1}
		w.chors = append(w.chors, ch)
		for c := range w.streams {
			w.streams[c] = append(w.streams[c], &stream{client: c, chor: ch, lost: map[string]bool{}})
		}
	}
	err := parallel(len(w.chors), func(i int) error { return b.provision(ctx, e, w.chors[i].id, w.chors[i].cs, factor) })
	return w, err
}

func (s *stream) suffix(gen int) string { return fmt.Sprintf("~c%d-g%d", s.client, gen) }

// generation interleaves the scripted traces round-robin under fresh
// conversation IDs, preserving each conversation's order.
func (s *stream) generation(gen int) []streamEvent {
	insts := s.chor.cs.sc.Instances
	var out []streamEvent
	for pos := 0; ; pos++ {
		appended := false
		for k, in := range insts {
			if pos < len(in.Trace) {
				out = append(out, streamEvent{party: in.Party, id: in.ID + s.suffix(gen), label: in.Trace[pos], tmpl: k, pos: pos})
				appended = true
			}
		}
		if !appended {
			return out
		}
	}
}

// batch cuts the next batchSize events off the stream, starting new
// generations as needed.
func (s *stream) batch() []streamEvent {
	out := make([]streamEvent, 0, batchSize)
	for len(out) < batchSize {
		if s.next == len(s.events) {
			s.gen++
			s.events = s.generation(s.gen)
			s.next = 0
		}
		out = append(out, s.events[s.next])
		s.next++
	}
	return out
}

// sent reports how many events of conversation (party, id) the stream
// has sent, and the scripted instance it replays.
func (s *stream) sent(party, id string) (int, *scenario.Instance, bool) {
	at := strings.LastIndex(id, "~c")
	if at < 0 || s.lost[party+"\x00"+id] {
		return 0, nil, false
	}
	gen, err := strconv.Atoi(id[strings.LastIndex(id, "-g")+2:])
	if err != nil || id[at:] != s.suffix(gen) || gen > s.gen || gen < 1 {
		return 0, nil, false
	}
	insts := s.chor.cs.sc.Instances
	for k := range insts {
		if insts[k].Party != party || insts[k].ID != id[:at] {
			continue
		}
		if gen < s.gen {
			return len(insts[k].Trace), &insts[k], true
		}
		n := 0
		for _, ev := range s.events[:s.next] {
			if ev.tmpl == k {
				n++
			}
		}
		return n, &insts[k], true
	}
	return 0, nil, false
}

func (w *ingestWorld) clients() [2]opFunc {
	var ops [2]opFunc
	for c := range ops {
		rng := clientSeed(w.b.cfg.seed, w.prefix+"ingest", c)
		chors := newDeck(rng, len(w.chors))
		episodes := make([]*deck, len(w.chors))
		for i, ch := range w.chors {
			episodes[i] = newDeck(rng, len(ch.cs.episodes))
		}
		n := 0
		ops[c] = func(ctx context.Context, rec *recorder) {
			n++
			i := chors.draw()
			switch {
			case c == 0 && n%episodeEvery == 0:
				w.episode(ctx, rec, w.chors[i], episodes[i], n)
			case c == 1 && n%statsEvery == 0:
				w.stats(ctx, rec, n)
			default:
				w.send(ctx, rec, w.streams[c][i], n)
			}
		}
	}
	return ops
}

func (w *ingestWorld) send(ctx context.Context, rec *recorder, s *stream, n int) {
	evs := s.batch()
	wire := make([]server.IngestEventJSON, len(evs))
	for i, ev := range evs {
		wire[i] = server.IngestEventJSON{Party: ev.party, Instance: ev.id, Label: string(ev.label)}
	}
	octx, sid := w.b.tr.op(ctx)
	t := time.Now()
	got, err := w.e.cl.IngestEvents(octx, s.chor.id, wire)
	rec.observe("ingest", t, err)
	if err == nil && got != len(evs) {
		w.b.gate.failf("ingest %s: acknowledged %d of %d events", s.chor.id, got, len(evs))
	}
	if err != nil {
		for _, ev := range evs {
			s.lost[ev.party+"\x00"+ev.id] = true
		}
		return
	}
	if w.b.sampled(n) {
		w.b.replayIngest(ctx, w.e, sid, s.chor.id, s.chor.cs, evs)
	}
}

// episode commits a scripted episode on the base processes, or reverts
// the applied one with a parties:batch restore.
func (w *ingestWorld) episode(ctx context.Context, rec *recorder, ch *ingestChor, episodes *deck, n int) {
	if ch.applied != nil {
		t := time.Now()
		resp, err := w.e.cl.RegisterParties(ctx, ch.id, ch.cs.sc.Parties, nil)
		rec.observe("restore", t, err)
		if err == nil {
			ch.applied, ch.version = nil, resp.Version
			w.b.replayUnmarshal(0, ch.cs)
		}
		return
	}
	ce := ch.cs.episodes[episodes.draw()]
	resp, ok := evolveCommit(ctx, w.b, w.e, rec, ch.id, ch.cs, ce.ep.Party, ce.wire, ce, n)
	if !ok {
		return
	}
	if resp.BaseVersion != ch.version {
		w.b.gate.failf("evolve %s: base version %d, want %d", ch.id, resp.BaseVersion, ch.version)
	}
	ch.applied, ch.version = ce, resp.BaseVersion+1
}

func (w *ingestWorld) stats(ctx context.Context, rec *recorder, n int) {
	octx, sid := w.b.tr.op(ctx)
	t := time.Now()
	st, err := w.e.cl.Stats(octx)
	rec.observe("stats", t, err)
	if err != nil {
		return
	}
	if st.Choreographies < len(w.chors) || st.TrackedInstances == 0 {
		w.b.gate.failf("stats: %d choreographies %d instances", st.Choreographies, st.TrackedInstances)
	}
	if w.b.sampled(n) {
		w.b.replayStats(sid, w.e)
	}
}

// started counts the conversations the stream has sent events of.
func (s *stream) started() int {
	if s.gen == 0 {
		return 0
	}
	seen := map[int]bool{}
	for _, ev := range s.events[:s.next] {
		seen[ev.tmpl] = true
	}
	return (s.gen-1)*len(s.chor.cs.sc.Instances) + len(seen)
}

// verify requires every streamed conversation's state, as the store
// reports it, to equal the whole-trace compliance check of the events
// sent against the party's final public process.
func (w *ingestWorld) verify(ctx context.Context) error {
	for i, ch := range w.chors {
		var checked [2]int
		snap, err := w.e.st.Snapshot(ctx, ch.id)
		if err != nil {
			return err
		}
		for _, party := range snap.Parties() {
			ps, _ := snap.Party(party)
			chk, err := instance.NewChecker(ps.Public)
			if err != nil {
				return err
			}
			states, err := w.e.st.InstanceStates(ctx, ch.id, party)
			if err != nil {
				return err
			}
			for _, st := range states {
				if strings.Contains(st.ID, "~r") {
					continue // seeded population
				}
				c := 0
				if strings.Contains(st.ID, "~c1-") {
					c = 1
				}
				sent, tmpl, ok := w.streams[c][i].sent(party, st.ID)
				if !ok {
					continue
				}
				checked[c]++
				want := chk.Check(instance.Instance{ID: st.ID, Trace: tmpl.Trace[:sent]})
				if st.TracePos != sent || st.Status != want {
					w.b.gate.failf("streamed %s/%s/%s: pos %d status %v, want %d %v",
						ch.id, party, st.ID, st.TracePos, st.Status, sent, want)
				}
			}
		}
		for c, s := range [2]*stream{w.streams[0][i], w.streams[1][i]} {
			if len(s.lost) == 0 && checked[c] != s.started() {
				w.b.gate.failf("streamed %s: store tracks %d conversations of client %d, sent %d", ch.id, checked[c], c, s.started())
			}
		}
	}
	return nil
}
