// Package fault is the repository's failpoint framework: named points
// compiled permanently into production code paths that do nothing
// until armed, and then fail (or partially complete) on demand. The
// journal's filesystem wrapper threads every durability syscall
// through a point, which is what the chaos soaks, the degraded-mode
// tests and `choreoctl loadgen -faults` drive (see docs/resilience.md).
//
// # Contract
//
// Every failpoint name is declared once in the catalog (catalog.go)
// and registered exactly once with New by the package that owns the
// call site. New panics on a duplicate name, Arm rejects a name nobody
// registered, and internal/journal's TestFaultCatalogRegistered (the
// journal is the only package that registers points) requires its
// registrations to equal the catalog.
//
// A disarmed point costs one atomic pointer load. An armed point
// consults its trigger: fire always, with probability p (seeded,
// deterministic), or on exactly the nth hit, optionally capped to a
// total fire count. Points are armed only through the API: Arm by
// catalog name, or Point.Arm on a point the caller holds.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrInjected is the root of every injected failure; match with
// errors.Is to tell injected faults from real ones.
var ErrInjected = errors.New("fault: injected failure")

// Trigger says when an armed point fires. The zero Trigger fires on
// every hit.
type Trigger struct {
	// Prob fires with the given probability per hit (0 < Prob <= 1).
	// The stream is deterministic: seeded by Seed, or by the point's
	// name when Seed is zero.
	Prob float64
	// Nth fires on exactly the nth hit after arming (1-based).
	Nth uint64
	// Count caps the total number of fires; 0 means unlimited.
	Count uint64
	// Seed seeds the probabilistic stream; 0 derives a stable seed
	// from the point's name.
	Seed uint64
}

// trigger is the armed state of a point.
type trigger struct {
	cfg   Trigger
	hits  atomic.Uint64
	fired atomic.Uint64
	rng   atomic.Uint64 // splitmix64 state
}

// Point is one named failpoint. Construct with New; the zero Point is
// not usable.
type Point struct {
	name  string
	arm   atomic.Pointer[trigger]
	fires atomic.Uint64
}

var (
	regMu    sync.Mutex
	registry = map[string]*Point{}
)

// New registers a failpoint. It panics on a duplicate name, which
// fails the owning package's tests at init.
func New(name string) *Point {
	if name == "" {
		panic("fault: empty failpoint name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("fault: failpoint %q registered twice", name))
	}
	p := &Point{name: name}
	registry[name] = p
	return p
}

// Name returns the point's catalog name.
func (p *Point) Name() string { return p.name }

// Arm activates the point with t; a second Arm replaces the trigger
// (and restarts its hit count).
func (p *Point) Arm(t Trigger) {
	tr := &trigger{cfg: t}
	seed := t.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(p.name))
		seed = h.Sum64()
	}
	tr.rng.Store(seed)
	p.arm.Store(tr)
}

// Disarm deactivates the point; Fire returns nil again.
func (p *Point) Disarm() { p.arm.Store(nil) }

// Fires returns how many failures the point has injected since
// process start (across arm/disarm cycles).
func (p *Point) Fires() uint64 { return p.fires.Load() }

// Fire evaluates the point: nil when disarmed or the trigger decides
// to pass, an ErrInjected-wrapping error when the fault fires. The
// disarmed fast path is one atomic load.
func (p *Point) Fire() error {
	t := p.arm.Load()
	if t == nil {
		return nil
	}
	if !t.decide() {
		return nil
	}
	p.fires.Add(1)
	return fmt.Errorf("%s: %w", p.name, ErrInjected)
}

// decide applies the trigger semantics to one hit.
func (t *trigger) decide() bool {
	hit := t.hits.Add(1)
	switch {
	case t.cfg.Nth > 0:
		if hit != t.cfg.Nth {
			return false
		}
	case t.cfg.Prob > 0:
		if t.rand() >= t.cfg.Prob {
			return false
		}
	}
	if t.cfg.Count > 0 && t.fired.Add(1) > t.cfg.Count {
		return false
	}
	return true
}

// rand draws the next [0,1) value of the trigger's deterministic
// splitmix64 stream.
func (t *trigger) rand() float64 {
	x := t.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// lookup finds a registered point.
func lookup(name string) (*Point, error) {
	regMu.Lock()
	defer regMu.Unlock()
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("fault: arming unregistered failpoint %q", name)
	}
	return p, nil
}

// Arm arms a registered point by catalog name; arming an unregistered
// name is an error.
func Arm(name string, t Trigger) error {
	p, err := lookup(name)
	if err != nil {
		return err
	}
	p.Arm(t)
	return nil
}

// DisarmAll disarms every registered point — test teardown.
func DisarmAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range registry {
		p.Disarm()
	}
}

// Fires returns a registered point's cumulative fire count — chaos
// harnesses use it to assert their faults actually fired.
func Fires(name string) (uint64, error) {
	p, err := lookup(name)
	if err != nil {
		return 0, err
	}
	return p.Fires(), nil
}

// Names returns the registered point names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
