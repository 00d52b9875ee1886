package store

import (
	"fmt"
	"testing"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/change"
	"repro/internal/scenario"
)

// fuzzOpFromBytes decodes one change operation from the fuzz input
// cursor against the party's current process: the first byte picks the
// op kind, the following bytes pick target paths, partners and
// conditions. Returns false when the input is exhausted.
func fuzzOpFromBytes(data []byte, pos *int, p *bpel.Process, partners []string, serial int) (change.Operation, bool) {
	next := func() (byte, bool) {
		if *pos >= len(data) {
			return 0, false
		}
		b := data[*pos]
		*pos++
		return b, true
	}
	kind, ok := next()
	if !ok {
		return nil, false
	}
	sel, ok := next()
	if !ok {
		return nil, false
	}
	var paths []bpel.Path
	bpel.Walk(p.Body, func(_ bpel.Activity, path bpel.Path) bool {
		paths = append(paths, append(bpel.Path(nil), path...))
		return true
	})
	if len(paths) == 0 {
		return nil, false
	}
	path := paths[int(sel)%len(paths)]
	partner := partners[int(sel)%len(partners)]
	freshInv := &bpel.Invoke{
		BlockName: fmt.Sprintf("fuzz invoke %d", serial),
		Partner:   partner,
		Op:        fmt.Sprintf("fuzzOp%d", serial),
	}
	switch kind % 8 {
	case 0:
		return change.Insert{Path: path, New: &bpel.Empty{BlockName: fmt.Sprintf("fuzz empty %d", serial)}, After: sel%2 == 0}, true
	case 1:
		return change.Insert{Path: path, New: &bpel.Assign{BlockName: fmt.Sprintf("fuzz assign %d", serial)}, After: sel%2 == 1}, true
	case 2:
		return change.Delete{Path: path}, true
	case 3:
		return change.Replace{Path: path, New: &bpel.Empty{BlockName: fmt.Sprintf("fuzz hole %d", serial)}}, true
	case 4:
		return change.Replace{Path: path, New: freshInv}, true
	case 5:
		return change.Append{Path: path, New: freshInv}, true
	case 6:
		cond := "1 = 1"
		if sel%2 == 0 {
			cond = "count < 3"
		}
		return change.SetWhileCond{Path: path, Cond: cond}, true
	default:
		anchor := ""
		if len(path) > 0 {
			anchor = path[len(path)-1]
		}
		other := paths[int(kind)%len(paths)]
		return change.Shift{Path: other, Anchor: anchor, After: sel%2 == 0}, true
	}
}

// FuzzEvolveOps throws random op transactions at Evolve across the
// whole scenario corpus. Three invariants: Evolve never panics
// (malformed transactions fail with an error); every registered party
// that exchanges a message with the originator before or after a
// change has an impact; and for every transaction that applies cleanly
// the analysis is path-independent — evolving through the op sequence
// classifies exactly like evolving through a single
// replace-the-whole-process op with the same final private.
func FuzzEvolveOps(f *testing.F) {
	scs, err := scenario.All()
	if err != nil {
		f.Fatal(err)
	}
	stores := make([]*Store, len(scs))
	for i, sc := range scs {
		s := New(WithShards(2))
		if err := s.Create(ctx, sc.Name, sc.SyncOps); err != nil {
			f.Fatal(err)
		}
		for _, p := range sc.Parties {
			if _, err := s.RegisterParty(ctx, sc.Name, p); err != nil {
				f.Fatal(err)
			}
		}
		stores[i] = s
	}

	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 1, 2, 7, 0, 3})
	f.Add([]byte{2, 3, 4, 5, 5, 9, 6, 2})
	f.Add([]byte{7, 200, 150, 3, 17, 4, 80, 1, 1})
	// supply-chain's shipper S starts invoking the bank K, which its
	// current public process never names: K must still be classified.
	f.Add([]byte("00$1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		si := int(data[0]) % len(scs)
		sc, s := scs[si], stores[si]
		party := sc.Parties[int(data[1])%len(sc.Parties)].Owner
		var partners []string
		for _, p := range sc.Parties {
			partners = append(partners, p.Owner)
		}

		base := sc.Party(party)
		pos := 2
		var ops []change.Operation
		for serial := 0; len(ops) < 4; serial++ {
			op, ok := fuzzOpFromBytes(data, &pos, base, partners, serial)
			if !ok {
				break
			}
			ops = append(ops, op)
		}
		if len(ops) == 0 {
			return
		}

		// Reference: apply the ops offline. A transaction that fails
		// offline must fail in Evolve too (and must not panic).
		final := base
		var applyErr error
		for _, op := range ops {
			if final, applyErr = op.Apply(final); applyErr != nil {
				break
			}
		}

		evo, err := s.Evolve(ctx, sc.Name, party, ops...)
		if applyErr != nil {
			if err == nil {
				t.Fatalf("%s/%s: Evolve accepted a transaction that fails offline (%v)", sc.Name, party, applyErr)
			}
			return
		}
		refOp := change.Replace{Path: nil, New: final.Body}
		ref, refErr := s.Evolve(ctx, sc.Name, party, refOp)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s/%s: op-sequence Evolve err=%v, replace-process Evolve err=%v", sc.Name, party, err, refErr)
		}
		if err != nil {
			// Both paths rejected the result (e.g. an invalid process);
			// agreeing on failure is all we ask.
			return
		}

		for _, pub := range []*afsa.Automaton{evo.OldPublic, evo.NewPublic} {
			for l := range pub.Alphabet() {
				for _, other := range [2]string{l.Sender(), l.Receiver()} {
					if _, ok := evo.Impact(other); evo.PublicChanged && !ok && other != party && sc.Party(other) != nil {
						t.Fatalf("%s/%s: %s exchanges messages with the originator but has no impact", sc.Name, party, other)
					}
				}
			}
		}
		if evo.PublicChanged != ref.PublicChanged {
			t.Fatalf("%s/%s: PublicChanged %v via ops, %v via replaceProcess", sc.Name, party, evo.PublicChanged, ref.PublicChanged)
		}
		if !afsa.Equivalent(evo.NewPublic, ref.NewPublic) {
			t.Fatalf("%s/%s: new publics differ between op-sequence and replace-process analysis", sc.Name, party)
		}
		for _, im := range evo.Impacts {
			rim, ok := ref.Impact(im.Partner)
			if !ok {
				t.Fatalf("%s/%s: partner %s impacted via ops but absent via replaceProcess", sc.Name, party, im.Partner)
			}
			if im.ViewChanged != rim.ViewChanged {
				t.Fatalf("%s/%s: partner %s ViewChanged %v via ops, %v via replaceProcess", sc.Name, party, im.Partner, im.ViewChanged, rim.ViewChanged)
			}
			if !im.ViewChanged {
				continue
			}
			if im.Classification.Kind != rim.Classification.Kind || im.Classification.Scope != rim.Classification.Scope {
				t.Fatalf("%s/%s: partner %s classified %s %s via ops, %s %s via replaceProcess",
					sc.Name, party, im.Partner,
					im.Classification.Kind, im.Classification.Scope,
					rim.Classification.Kind, rim.Classification.Scope)
			}
		}
	})
}
