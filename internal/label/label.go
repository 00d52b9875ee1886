// Package label models the message labels of annotated Finite State
// Automata as used in "On the Controlled Evolution of Process
// Choreographies" (Rinderle, Wombacher, Reichert; ICDE 2006).
//
// A label has the textual form
//
//	Sender#Receiver#operation
//
// meaning party Sender sends a message invoking operation at party
// Receiver (paper Sec. 3.2: "a label A#B#msg indicates that party A
// sends message msg to party B"). The empty label is the silent move
// ε produced by view generation (Sec. 3.4).
package label

import (
	"fmt"
	"sort"
	"strings"
)

// Sep separates the sender, receiver and operation parts of a label.
const Sep = "#"

// Label is a message label of the form "Sender#Receiver#op", or the
// empty string for the silent label ε.
type Label string

// Epsilon is the silent label produced by relabeling transitions that
// do not involve the viewing party (paper Sec. 3.4).
const Epsilon Label = ""

// New builds a label from its three parts. It panics if any part is
// empty or contains the separator; labels built programmatically are
// expected to be well formed (use Parse for untrusted input).
func New(sender, receiver, op string) Label {
	l, err := Make(sender, receiver, op)
	if err != nil {
		panic(err)
	}
	return l
}

// Make builds a label from its three parts, reporting malformed parts
// as an error.
func Make(sender, receiver, op string) (Label, error) {
	for _, part := range [3]string{sender, receiver, op} {
		if part == "" {
			return Epsilon, fmt.Errorf("label: empty part in (%q,%q,%q)", sender, receiver, op)
		}
		if strings.Contains(part, Sep) {
			return Epsilon, fmt.Errorf("label: part %q contains separator %q", part, Sep)
		}
	}
	return Label(sender + Sep + receiver + Sep + op), nil
}

// Parse validates a textual label. The empty string parses to Epsilon.
// A valid label is returned as s itself: Parse runs once per ingested
// event, so it validates by index and allocates nothing
// (TestParseAllocs).
func Parse(s string) (Label, error) {
	if s == "" {
		return Epsilon, nil
	}
	a, b := strings.Index(s, Sep), strings.LastIndex(s, Sep)
	if a < 0 || a == b || strings.Contains(s[a+len(Sep):b], Sep) {
		return Epsilon, fmt.Errorf("label: %q does not have form Sender#Receiver#op", s)
	}
	sender, receiver, op := s[:a], s[a+len(Sep):b], s[b+len(Sep):]
	if sender == "" || receiver == "" || op == "" {
		return Epsilon, fmt.Errorf("label: empty part in (%q,%q,%q)", sender, receiver, op)
	}
	return Label(s), nil
}

// MustParse is Parse that panics on malformed input; intended for
// fixtures and tests.
func MustParse(s string) Label {
	l, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return l
}

// IsEpsilon reports whether l is the silent label.
func (l Label) IsEpsilon() bool { return l == Epsilon }

// Valid reports whether l is either ε or a well-formed three-part label.
func (l Label) Valid() bool {
	_, err := Parse(string(l))
	return err == nil
}

// part returns the i-th of the (up to) three label parts without
// allocating: the accessors run inside view generation and snapshot
// alphabet scans, so they must not split into fresh slices.
func (l Label) part(i int) string {
	if l.IsEpsilon() {
		return ""
	}
	s := string(l)
	a := strings.Index(s, Sep)
	if a < 0 {
		return ""
	}
	b := strings.Index(s[a+1:], Sep)
	if b < 0 {
		return ""
	}
	b += a + 1
	switch i {
	case 0:
		return s[:a]
	case 1:
		return s[a+1 : b]
	default:
		return s[b+1:]
	}
}

// Sender returns the sending party, or "" for ε.
func (l Label) Sender() string { return l.part(0) }

// Receiver returns the receiving party, or "" for ε.
func (l Label) Receiver() string { return l.part(1) }

// Op returns the operation name, or "" for ε.
func (l Label) Op() string { return l.part(2) }

// Involves reports whether party p is the sender or the receiver of l.
// ε involves nobody.
func (l Label) Involves(p string) bool {
	if l.IsEpsilon() || p == "" {
		return false
	}
	return l.Sender() == p || l.Receiver() == p
}

// Between reports whether l is exchanged between parties p and q (in
// either direction).
func (l Label) Between(p, q string) bool {
	return (l.Sender() == p && l.Receiver() == q) || (l.Sender() == q && l.Receiver() == p)
}

// Reverse returns the label with sender and receiver swapped. Used for
// the response part of synchronous operations, which the paper labels
// with the same operation name in the opposite direction (Fig. 8b).
func (l Label) Reverse() Label {
	if l.IsEpsilon() {
		return Epsilon
	}
	return New(l.Receiver(), l.Sender(), l.Op())
}

// String returns the textual form; ε renders as "ε" for display.
func (l Label) String() string {
	if l.IsEpsilon() {
		return "ε"
	}
	return string(l)
}

// Set is a set of labels.
type Set map[Label]struct{}

// NewSet builds a set from the given labels, ignoring ε.
func NewSet(labels ...Label) Set {
	s := make(Set, len(labels))
	for _, l := range labels {
		s.Add(l)
	}
	return s
}

// Add inserts l into the set; ε is ignored (the alphabet of an
// automaton never contains the silent label).
func (s Set) Add(l Label) {
	if !l.IsEpsilon() {
		s[l] = struct{}{}
	}
}

// Has reports membership.
func (s Set) Has(l Label) bool {
	_, ok := s[l]
	return ok
}

// Union returns a new set containing the labels of s and t.
func (s Set) Union(t Set) Set {
	u := make(Set, len(s)+len(t))
	for l := range s {
		u[l] = struct{}{}
	}
	for l := range t {
		u[l] = struct{}{}
	}
	return u
}

// Intersect returns a new set containing the labels in both s and t.
func (s Set) Intersect(t Set) Set {
	u := make(Set)
	for l := range s {
		if t.Has(l) {
			u[l] = struct{}{}
		}
	}
	return u
}

// Sorted returns the labels in lexicographic order.
func (s Set) Sorted() []Label {
	out := make([]Label, 0, len(s))
	for l := range s {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Parties returns the sorted set of parties mentioned by any label in s.
func (s Set) Parties() []string {
	seen := map[string]struct{}{}
	for l := range s {
		seen[l.Sender()] = struct{}{}
		seen[l.Receiver()] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		if p != "" {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
