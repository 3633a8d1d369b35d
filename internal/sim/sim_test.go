package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var fired []int64
	for _, tm := range []int64{50, 10, 30, 20, 40} {
		tm := tm
		if err := e.At(tm, func(now int64) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("executed %d, want 5", n)
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Errorf("out of order: %v", fired)
	}
	if e.Now() != 1000 {
		t.Errorf("clock = %d, want horizon 1000", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := e.At(5, func(int64) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []int64
	var step func(now int64)
	step = func(now int64) {
		times = append(times, now)
		if now < 50 {
			if err := e.After(10, step); err != nil {
				t.Error(err)
			}
		}
	}
	if err := e.After(10, step); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 30, 40, 50}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %d, want %d", i, times[i], want[i])
		}
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	e := NewEngine()
	if err := e.At(100, func(int64) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	if err := e.At(50, func(int64) {}); !errors.Is(err, ErrPast) {
		t.Errorf("At in past: %v", err)
	}
	if err := e.After(-1, func(int64) {}); !errors.Is(err, ErrPast) {
		t.Errorf("negative After: %v", err)
	}
}

func TestHorizonLeavesFutureEventsQueued(t *testing.T) {
	e := NewEngine()
	var fired []int64
	for _, tm := range []int64{5, 15, 25} {
		if err := e.At(tm, func(now int64) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || len(e.queue) != 1 {
		t.Errorf("fired=%v pending=%d", fired, len(e.queue))
	}
	if e.Now() != 20 {
		t.Errorf("clock = %d", e.Now())
	}
	// Resume past the horizon.
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Errorf("after resume fired=%v", fired)
	}
}

func TestEventAtHorizonDoesNotFire(t *testing.T) {
	e := NewEngine()
	fired := false
	if err := e.At(10, func(int64) { fired = true }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event at horizon fired (horizon is exclusive)")
	}
	if len(e.queue) != 1 {
		t.Errorf("pending = %d", len(e.queue))
	}
}

func TestClockAdvancesMonotonicallyProperty(t *testing.T) {
	// Property: handlers observe a non-decreasing clock regardless of the
	// insertion order of events.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var last int64 = -1
		ok := true
		for i := 0; i < 100; i++ {
			tm := int64(rng.Intn(1000))
			if err := e.At(tm, func(now int64) {
				if now < last {
					ok = false
				}
				last = now
			}); err != nil {
				return false
			}
		}
		if _, err := e.Run(2000); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
