package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/migrate"
)

// encodingPieces are the fragments random record strings are built
// from: plain text, every byte encoding/json escapes (the HTML-sensitive
// ones too), U+2028 and U+2029, valid multi-byte runes and invalid
// UTF-8.
var encodingPieces = []string{
	"", "a", "B#A#orderOp", "conv-17", " ", "~\x7f",
	"<", ">", "&", `"`, `\`, "/",
	"\x00", "\x01", "\b", "\t", "\n", "\f", "\r", "\x1b", "\x1f",
	"\u2028", "\u2029", "\u00e9", "\u4e2d", "\U0001F600", "\ufffd",
	"\xff", "\xc0", "\x80", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

func randString(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(6); n > 0; n-- {
		b = append(b, encodingPieces[rng.Intn(len(encodingPieces))]...)
	}
	return string(b)
}

func randInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Intn(300)
	case 2:
		return -rng.Intn(300)
	default:
		return []int{math.MaxInt, math.MinInt}[rng.Intn(2)]
	}
}

func randUint(rng *rand.Rand) uint64 {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return uint64(rng.Intn(300))
	default:
		return math.MaxUint64
	}
}

// randLen returns -1 (a nil slice), 0 (an empty one) or a small length.
func randLen(rng *rand.Rand) int {
	return rng.Intn(6) - 1
}

func randMigShard(rng *rand.Rand) recMigShard {
	rec := recMigShard{
		Job:   randString(rng),
		Shard: randInt(rng),
		Counts: migrate.Counts{
			Total: randInt(rng), Migratable: randInt(rng), NonReplayable: randInt(rng), Unviable: randInt(rng),
		},
		ID:     randString(rng),
		Target: randUint(rng),
	}
	if n := randLen(rng); n >= 0 {
		rec.Stranded = make([]migrate.Stranded, n)
		for i := range rec.Stranded {
			rec.Stranded[i] = migrate.Stranded{Party: randString(rng), ID: randString(rng), Status: instance.Status(randInt(rng))}
		}
	}
	if n := randLen(rng); n >= 0 {
		rec.Tags = make([]tagRuns, n)
		for i := range rec.Tags {
			rec.Tags[i].Party = randString(rng)
			if m := randLen(rng); m >= 0 {
				rec.Tags[i].Runs = make([]int, m)
				for j := range rec.Tags[i].Runs {
					rec.Tags[i].Runs[j] = randInt(rng)
				}
			}
		}
	}
	return rec
}

func randEvents(rng *rand.Rand) recEvents {
	rec := recEvents{ID: randString(rng), Shard: randInt(rng), Target: randUint(rng)}
	if n := randLen(rng); n >= 0 {
		rec.Events = make([]recEvent, n)
		for i := range rec.Events {
			rec.Events[i] = recEvent{Party: randString(rng), Inst: randString(rng), Label: label.Label(randString(rng))}
		}
	}
	if n := randLen(rng); n >= 0 {
		rec.Created = make([]recEvtCreate, n)
		for i := range rec.Created {
			rec.Created[i] = recEvtCreate{Party: randString(rng), Inst: randString(rng), Schema: randUint(rng)}
		}
	}
	if n := randLen(rng); n >= 0 {
		rec.Tags = make([]tagRef, n)
		for i := range rec.Tags {
			rec.Tags[i] = tagRef{Party: randString(rng), Ref: randInt(rng)}
		}
	}
	return rec
}

// checkEncoders fails t unless both hand-written encoders, appending to
// a non-empty buffer, produce exactly json.Marshal's bytes.
func checkEncoders(t *testing.T, shard recMigShard, evs recEvents) {
	t.Helper()
	prefix := []byte("prefix")
	for _, c := range []struct {
		rec  walRecord
		hand []byte
	}{
		{walRecord{MigShard: &shard}, appendMigShardRecord(prefix, &shard)},
		{walRecord{Events: &evs}, appendEventsRecord(prefix, &evs)},
	} {
		want, err := json.Marshal(&c.rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.hand[len(prefix):]; !bytes.Equal(got, want) || !bytes.Equal(c.hand[:len(prefix)], prefix) {
			t.Fatalf("hand-written encoding differs from encoding/json:\n got %q\nwant %q", got, want)
		}
	}
}

// TestWALRecordEncodingMatchesJSON compares the hand-written migShard
// and events encoders with json.Marshal on random records: strings
// with every escaped byte, U+2028 and invalid UTF-8, numbers at their
// extremes, and each slice nil, empty or filled, so omitempty fields
// are both present and absent and a nil events.events or tagRuns.runs
// encodes as null.
func TestWALRecordEncodingMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		checkEncoders(t, randMigShard(rng), randEvents(rng))
	}
	// The zero records: every omitempty field absent, every other
	// slice nil.
	checkEncoders(t, recMigShard{}, recEvents{})
}

// FuzzWALRecordEncoding runs the byte-identity check of
// TestWALRecordEncodingMatchesJSON on arbitrary strings and numbers.
func FuzzWALRecordEncoding(f *testing.F) {
	f.Add("job", "B#A#orderOp", "conv-1", 3, uint64(2))
	f.Add("", "", "", 0, uint64(0))
	f.Add("<a&b>", "\"\\\x00\x1f\x7f", "\u2028\u2029\xff\xc0", -1, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, a, b, c string, n int, u uint64) {
		shard := recMigShard{
			Job: a, Shard: n, Counts: migrate.Counts{Total: n, Migratable: n / 2},
			Stranded: []migrate.Stranded{{Party: b, ID: c, Status: instance.Status(n)}},
			ID:       b, Target: u,
			Tags: []tagRuns{{Party: c, Runs: []int{n, 1}}, {Party: a}},
		}
		evs := recEvents{
			ID: a, Shard: n, Target: u,
			Events:  []recEvent{{Party: a, Inst: b, Label: label.Label(c)}, {Party: c, Inst: a, Label: label.Label(b)}},
			Created: []recEvtCreate{{Party: b, Inst: c, Schema: u}},
			Tags:    []tagRef{{Party: c, Ref: n}},
		}
		checkEncoders(t, shard, evs)
		checkEncoders(t, recMigShard{Job: c, ID: a}, recEvents{ID: b, Events: []recEvent{}})
	})
}

// TestAppendWALAllocs pins the journaling of the two records written
// in bulk at zero allocations per append: a swept shard's migShard
// record and a 64-event ingest batch's events record.
func TestAppendWALAllocs(t *testing.T) {
	s, err := Open(WithJournal(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shard := recMigShard{
		Job: "mig-procurement-v2", Shard: 41, ID: "procurement", Target: 2,
		Counts:   migrate.Counts{Total: 310, Migratable: 308, Unviable: 2},
		Stranded: []migrate.Stranded{{Party: "B", ID: "b-17", Status: instance.Unviable}, {Party: "B", ID: "b-90", Status: instance.Unviable}},
		Tags:     []tagRuns{{Party: "A", Runs: []int{0, 120}}, {Party: "B", Runs: []int{0, 17, 18, 72, 91, 100}}},
	}
	evs := recEvents{ID: "procurement", Shard: 41, Target: 2, Tags: []tagRef{{Party: "A", Ref: 300}}}
	for i := 0; i < 64; i++ {
		inst := fmt.Sprintf("conv-%d", 1000+i/4)
		evs.Events = append(evs.Events, recEvent{Party: "B", Inst: inst, Label: "B#A#orderOp"})
		if i%4 == 0 {
			evs.Created = append(evs.Created, recEvtCreate{Party: "B", Inst: inst, Schema: 2})
		}
	}
	pinAllocs(t, "journaling a migShard and a 64-event events record", 0, func() {
		if err := s.appendMigShardWAL(&shard); err != nil {
			t.Fatal(err)
		}
		if err := s.appendEventsWAL(&evs); err != nil {
			t.Fatal(err)
		}
	})
}
