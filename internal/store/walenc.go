package store

// Hand-written encoders for the two journal records written in bulk:
// migShard, one per swept instance shard, and events, one per applied
// ingest lane batch. Each appends exactly the bytes
// json.Marshal(&walRecord{...}) produces for the record, so the WAL
// format, the decoder and replay stay encoding/json's, and logs written
// either way recover alike. TestWALRecordEncodingMatchesJSON and
// FuzzWALRecordEncoding pin the byte identity. Every other record
// keeps json.Marshal.

import (
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/migrate"
)

// keepEncBytes bounds the encode buffers encBufs keeps: a larger
// record's buffer is dropped after its append, so one big record does
// not stay live in the pool.
const keepEncBytes = 16 << 10

// encBufs pools the buffers the hand-written encoders append to.
var encBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// appendMigShardWAL journals one swept shard (see sweepShard).
func (s *Store) appendMigShardWAL(rec *recMigShard) error {
	if s.jnl == nil {
		return nil
	}
	bp := encBufs.Get().(*[]byte)
	*bp = appendMigShardRecord((*bp)[:0], rec)
	return s.appendPooled(bp)
}

// appendEventsWAL journals one applied ingest lane batch (see
// applyIngest).
func (s *Store) appendEventsWAL(rec *recEvents) error {
	if s.jnl == nil {
		return nil
	}
	bp := encBufs.Get().(*[]byte)
	*bp = appendEventsRecord((*bp)[:0], rec)
	return s.appendPooled(bp)
}

// appendPooled journals the record in *bp and returns the buffer to
// encBufs, unless it grew past keepEncBytes.
func (s *Store) appendPooled(bp *[]byte) error {
	err := s.appendJournal(*bp)
	if cap(*bp) <= keepEncBytes {
		encBufs.Put(bp)
	}
	return err
}

// appendMigShardRecord appends json.Marshal(&walRecord{MigShard: rec}).
func appendMigShardRecord(b []byte, rec *recMigShard) []byte {
	b = append(b, `{"migShard":{"job":`...)
	b = appendJSONString(b, rec.Job)
	b = append(b, `,"shard":`...)
	b = appendInt(b, rec.Shard)
	b = append(b, `,"counts":{"Total":`...)
	b = appendInt(b, rec.Counts.Total)
	b = append(b, `,"Migratable":`...)
	b = appendInt(b, rec.Counts.Migratable)
	b = append(b, `,"NonReplayable":`...)
	b = appendInt(b, rec.Counts.NonReplayable)
	b = append(b, `,"Unviable":`...)
	b = appendInt(b, rec.Counts.Unviable)
	b = append(b, '}')
	if len(rec.Stranded) > 0 {
		b = append(b, `,"stranded":`...)
		b = appendArray(b, rec.Stranded, appendStranded)
	}
	if rec.ID != "" {
		b = append(b, `,"id":`...)
		b = appendJSONString(b, rec.ID)
	}
	if rec.Target != 0 {
		b = append(b, `,"target":`...)
		b = strconv.AppendUint(b, rec.Target, 10)
	}
	if len(rec.Tags) > 0 {
		b = append(b, `,"tags":`...)
		b = appendArray(b, rec.Tags, appendTagRuns)
	}
	return append(b, "}}"...)
}

// appendStranded encodes a migrate.Stranded as encoding/json does: its
// exported field names as keys, in declaration order.
func appendStranded(b []byte, st migrate.Stranded) []byte {
	b = append(b, `{"Party":`...)
	b = appendJSONString(b, st.Party)
	b = append(b, `,"ID":`...)
	b = appendJSONString(b, st.ID)
	b = append(b, `,"Status":`...)
	b = appendInt(b, int(st.Status))
	return append(b, '}')
}

func appendTagRuns(b []byte, tr tagRuns) []byte {
	b = append(b, `{"party":`...)
	b = appendJSONString(b, tr.Party)
	b = append(b, `,"runs":`...)
	b = appendArray(b, tr.Runs, appendInt)
	return append(b, '}')
}

// appendEventsRecord appends json.Marshal(&walRecord{Events: rec}).
func appendEventsRecord(b []byte, rec *recEvents) []byte {
	b = append(b, `{"events":{"id":`...)
	b = appendJSONString(b, rec.ID)
	b = append(b, `,"shard":`...)
	b = appendInt(b, rec.Shard)
	b = append(b, `,"events":`...)
	b = appendArray(b, rec.Events, appendEvent)
	if len(rec.Created) > 0 {
		b = append(b, `,"created":`...)
		b = appendArray(b, rec.Created, appendEvtCreate)
	}
	if rec.Target != 0 {
		b = append(b, `,"target":`...)
		b = strconv.AppendUint(b, rec.Target, 10)
	}
	if len(rec.Tags) > 0 {
		b = append(b, `,"tags":`...)
		b = appendArray(b, rec.Tags, appendTagRef)
	}
	return append(b, "}}"...)
}

func appendEvent(b []byte, ev recEvent) []byte {
	b = append(b, `{"party":`...)
	b = appendJSONString(b, ev.Party)
	b = append(b, `,"inst":`...)
	b = appendJSONString(b, ev.Inst)
	b = append(b, `,"label":`...)
	b = appendJSONString(b, string(ev.Label))
	return append(b, '}')
}

func appendEvtCreate(b []byte, c recEvtCreate) []byte {
	b = append(b, `{"party":`...)
	b = appendJSONString(b, c.Party)
	b = append(b, `,"inst":`...)
	b = appendJSONString(b, c.Inst)
	b = append(b, `,"schema":`...)
	b = strconv.AppendUint(b, c.Schema, 10)
	return append(b, '}')
}

func appendTagRef(b []byte, ref tagRef) []byte {
	b = append(b, `{"party":`...)
	b = appendJSONString(b, ref.Party)
	b = append(b, `,"ref":`...)
	b = appendInt(b, ref.Ref)
	return append(b, '}')
}

// appendArray appends xs as encoding/json encodes a slice: null when
// it is nil, otherwise each element by elem, in brackets.
func appendArray[T any](b []byte, xs []T, elem func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, x)
	}
	return append(b, ']')
}

func appendInt(b []byte, n int) []byte {
	return strconv.AppendInt(b, int64(n), 10)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as json.Marshal quotes a string: '"' and
// '\\' escaped, \b \f \n \r \t short, other control bytes as \u00XX, the
// HTML-sensitive '<', '>' and '&' as \u003c, \u003e and \u0026, U+2028
// and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as
// \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
