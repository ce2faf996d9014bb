package sim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(3, func(float64) { order = append(order, 3) })
	k.At(1, func(float64) { order = append(order, 1) })
	k.At(2, func(float64) { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 3 {
		t.Errorf("Now = %v, want 3", k.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func(float64) { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of scheduling order: %v", order)
		}
	}
}

func TestAfterAndClockMonotonicity(t *testing.T) {
	k := NewKernel()
	var times []float64
	k.After(2, func(now float64) {
		times = append(times, now)
		k.After(3, func(now float64) { times = append(times, now) })
	})
	k.After(-1, func(now float64) { times = append(times, now) }) // clamps to now
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	if times[0] != 0 || times[1] != 2 || times[2] != 5 {
		t.Errorf("times = %v, want [0 2 5]", times)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	k := NewKernel()
	var got float64 = -1
	k.At(10, func(now float64) {
		k.At(3, func(now float64) { got = now }) // in the past
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("past event fired at %v, want 10", got)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var order []int
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		k.At(at, func(float64) { order = append(order, int(at)) })
	}
	if err := k.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Errorf("order = %v, want two events", order)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Errorf("order = %v, want all four", order)
	}
}

func TestEventBudget(t *testing.T) {
	k := NewKernel()
	k.SetEventBudget(100)
	// Self-perpetuating event chain.
	fired := 0
	var loop func(now float64)
	loop = func(now float64) { fired++; k.After(1, loop) }
	k.After(0, loop)
	if err := k.Run(); err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	if fired != 100 {
		t.Errorf("fired = %d, want 100", fired)
	}
	// Removing the budget lets it continue (bounded by RunUntil).
	k.SetEventBudget(0)
	if err := k.RunUntil(200); err != nil {
		t.Fatal(err)
	}
}

func TestStepOnEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Error("Step on empty kernel should report false")
	}
	if k.Now() != 0 {
		t.Error("empty kernel state wrong")
	}
}
