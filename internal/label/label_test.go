package label

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndParts(t *testing.T) {
	l := New("B", "A", "orderOp")
	if got, want := string(l), "B#A#orderOp"; got != want {
		t.Fatalf("New = %q, want %q", got, want)
	}
	if l.Sender() != "B" || l.Receiver() != "A" || l.Op() != "orderOp" {
		t.Fatalf("parts = (%q,%q,%q)", l.Sender(), l.Receiver(), l.Op())
	}
}

func TestMakeErrors(t *testing.T) {
	cases := [][3]string{
		{"", "A", "op"},
		{"B", "", "op"},
		{"B", "A", ""},
		{"B#x", "A", "op"},
		{"B", "A#x", "op"},
		{"B", "A", "op#x"},
	}
	for _, c := range cases {
		if _, err := Make(c[0], c[1], c[2]); err == nil {
			t.Errorf("Make(%q,%q,%q): want error", c[0], c[1], c[2])
		}
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in      string
		wantErr bool
	}{
		{"A#B#msg", false},
		{"", false}, // epsilon
		{"A#B", true},
		{"A#B#m#x", true},
		{"#B#m", true},
	}
	for _, tt := range tests {
		l, err := Parse(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("Parse(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
		}
		if err == nil && string(l) != tt.in {
			t.Errorf("Parse(%q) = %q", tt.in, l)
		}
	}
}

// parseBySplit is Parse as it was written before it validated by
// index: split into parts, then Make. TestParseMatchesSplit holds the
// two to the same results and errors.
func parseBySplit(s string) (Label, error) {
	if s == "" {
		return Epsilon, nil
	}
	parts := strings.Split(s, Sep)
	if len(parts) != 3 {
		return Epsilon, fmt.Errorf("label: %q does not have form Sender#Receiver#op", s)
	}
	return Make(parts[0], parts[1], parts[2])
}

func TestParseMatchesSplit(t *testing.T) {
	same := func(s string) bool {
		got, gotErr := Parse(s)
		want, wantErr := parseBySplit(s)
		return got == want && fmt.Sprint(gotErr) == fmt.Sprint(wantErr)
	}
	for _, s := range []string{
		"", "#", "##", "###", "A#B#m", "A#B", "A#B#m#x", "#B#m", "A##m", "A#B#",
		"A", "A#", "ABC#DEF#ghi", "a#b#c#", "#a#b#c", "ε",
	} {
		if !same(s) {
			t.Errorf("Parse(%q) disagrees with the split reference", s)
		}
	}
	// Random strings over a small alphabet hit every separator count.
	gen := func(bs []byte) bool {
		for i := range bs {
			bs[i] = "AB#"[int(bs[i])%3]
		}
		return same(string(bs))
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseAllocs pins Parse of a valid label at zero allocations. The
// label is built at run time, so the compiler cannot fold the call.
func TestParseAllocs(t *testing.T) {
	s := strings.Join([]string{"B", "A", fmt.Sprintf("op%d", len(t.Name()))}, Sep)
	if got := testing.AllocsPerRun(50, func() {
		if l, err := Parse(s); err != nil || string(l) != s {
			t.Fatalf("Parse(%q) = %q, %v", s, l, err)
		}
	}); got > 0 {
		t.Fatalf("Parse allocates %.0f per run, pinned at 0", got)
	}
}

func TestEpsilon(t *testing.T) {
	if !Epsilon.IsEpsilon() {
		t.Fatal("Epsilon.IsEpsilon() = false")
	}
	if Epsilon.Sender() != "" || Epsilon.Receiver() != "" || Epsilon.Op() != "" {
		t.Fatal("epsilon has non-empty parts")
	}
	if Epsilon.Involves("A") {
		t.Fatal("epsilon involves A")
	}
	if Epsilon.String() != "ε" {
		t.Fatalf("Epsilon.String() = %q", Epsilon.String())
	}
	if Epsilon.Reverse() != Epsilon {
		t.Fatal("Reverse(ε) != ε")
	}
}

func TestInvolvesAndBetween(t *testing.T) {
	l := New("A", "L", "deliverOp")
	if !l.Involves("A") || !l.Involves("L") || l.Involves("B") {
		t.Fatalf("Involves wrong for %v", l)
	}
	if !l.Between("A", "L") || !l.Between("L", "A") {
		t.Fatalf("Between wrong for %v", l)
	}
	if l.Between("A", "B") {
		t.Fatalf("Between(A,B) true for %v", l)
	}
	if l.Involves("") {
		t.Fatal("Involves(\"\") = true")
	}
}

func TestReverse(t *testing.T) {
	l := New("A", "L", "get_statusLOp")
	r := l.Reverse()
	if string(r) != "L#A#get_statusLOp" {
		t.Fatalf("Reverse = %q", r)
	}
	if r.Reverse() != l {
		t.Fatal("double Reverse is not identity")
	}
}

func TestSetBasics(t *testing.T) {
	a := New("A", "B", "x")
	b := New("B", "A", "y")
	c := New("A", "L", "z")
	s := NewSet(a, b, Epsilon)
	if len(s) != 2 {
		t.Fatalf("len = %d, want 2 (epsilon ignored)", len(s))
	}
	if !s.Has(a) || !s.Has(b) || s.Has(c) {
		t.Fatal("Has wrong")
	}
	u := s.Union(NewSet(c))
	if len(u) != 3 {
		t.Fatalf("union len = %d", len(u))
	}
	i := u.Intersect(NewSet(a, c))
	if len(i) != 2 || !i.Has(a) || !i.Has(c) {
		t.Fatalf("intersect = %v", i)
	}
}

func TestSetSortedAndParties(t *testing.T) {
	s := NewSet(New("B", "A", "orderOp"), New("A", "B", "deliveryOp"), New("A", "L", "deliverOp"))
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatalf("not sorted: %v", sorted)
		}
	}
	parties := s.Parties()
	want := []string{"A", "B", "L"}
	if len(parties) != len(want) {
		t.Fatalf("parties = %v", parties)
	}
	for i := range want {
		if parties[i] != want[i] {
			t.Fatalf("parties = %v, want %v", parties, want)
		}
	}
}

// Property: Make then parts round-trips for separator-free parts.
func TestQuickRoundTrip(t *testing.T) {
	f := func(s, r, o string) bool {
		l, err := Make(s, r, o)
		if err != nil {
			return true // malformed inputs are allowed to fail
		}
		return l.Sender() == s && l.Receiver() == r && l.Op() == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Reverse is an involution on valid labels.
func TestQuickReverseInvolution(t *testing.T) {
	f := func(s, r, o string) bool {
		l, err := Make(s, r, o)
		if err != nil {
			return true
		}
		return l.Reverse().Reverse() == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
