package fault

import (
	"errors"
	"testing"
)

func TestDisarmedIsNoop(t *testing.T) {
	p := New("test.disarmed")
	for i := 0; i < 100; i++ {
		if err := p.Fire(); err != nil {
			t.Fatalf("disarmed point fired: %v", err)
		}
	}
	if p.Fires() != 0 {
		t.Fatalf("Fires = %d, want 0", p.Fires())
	}
}

func TestAlwaysTrigger(t *testing.T) {
	p := New("test.always")
	p.Arm(Trigger{})
	defer p.Disarm()
	err := p.Fire()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Fire = %v, want ErrInjected", err)
	}
	p.Disarm()
	if err := p.Fire(); err != nil {
		t.Fatalf("fired after Disarm: %v", err)
	}
}

func TestNthHitTrigger(t *testing.T) {
	p := New("test.nth")
	p.Arm(Trigger{Nth: 3})
	defer p.Disarm()
	for i := 1; i <= 5; i++ {
		err := p.Fire()
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
	}
	if p.Fires() != 1 {
		t.Fatalf("Fires = %d, want 1", p.Fires())
	}
}

func TestProbabilisticTriggerDeterministic(t *testing.T) {
	run := func() []bool {
		p, _ := lookup("test.prob")
		if p == nil {
			p = New("test.prob")
		}
		p.Arm(Trigger{Prob: 0.3, Seed: 42})
		defer p.Disarm()
		out := make([]bool, 200)
		for i := range out {
			out[i] = p.Fire() != nil
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probabilistic stream not deterministic at hit %d", i)
		}
		if a[i] {
			fires++
		}
	}
	// 200 hits at p=0.3: expect roughly 60, assert a loose band.
	if fires < 30 || fires > 100 {
		t.Fatalf("fired %d of 200 at p=0.3", fires)
	}
}

func TestCountCap(t *testing.T) {
	p := New("test.count")
	p.Arm(Trigger{Count: 2})
	defer p.Disarm()
	fires := 0
	for i := 0; i < 10; i++ {
		if p.Fire() != nil {
			fires++
		}
	}
	if fires != 2 {
		t.Fatalf("fired %d times, want 2 (Count cap)", fires)
	}
}

func TestArmByNameAndSpec(t *testing.T) {
	p := New("test.byname")
	if err := Arm("test.byname", Trigger{}); err != nil {
		t.Fatal(err)
	}
	defer p.Disarm()
	if err := p.Fire(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Fire after Arm by name = %v, want ErrInjected", err)
	}
	if err := Arm("test.not.registered", Trigger{}); err == nil {
		t.Fatal("arming an unregistered point succeeded")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	New("test.dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate New did not panic")
		}
	}()
	New("test.dup")
}
