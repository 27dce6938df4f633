package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	// Same-time events run in scheduling order.
	s.At(20, func() { got = append(got, 4) })
	for s.Step() {
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("now = %v, want 30", s.Now())
	}
}

func TestSimAfterAndNesting(t *testing.T) {
	s := NewSim()
	var fired []Time
	s.After(5, func() {
		fired = append(fired, s.Now())
		s.After(7, func() { fired = append(fired, s.Now()) })
	})
	s.Drain(0)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 12 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSimPastPanics(t *testing.T) {
	s := NewSim()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Drain(0)
}

func TestRunUntil(t *testing.T) {
	s := NewSim()
	var count int
	for i := 1; i <= 10; i++ {
		s.At(Time(i*10), func() { count++ })
	}
	s.RunUntil(50)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	s.RunUntil(200)
	if count != 10 || s.Pending() != 0 {
		t.Fatalf("count = %d pending = %d", count, s.Pending())
	}
	// Clock advances to the deadline when events run dry.
	s.RunUntil(500)
	if s.Now() != 500 {
		t.Fatalf("now = %v, want 500", s.Now())
	}
	// ... and also when a later event is still pending: whatever the
	// caller schedules next counts from the deadline, not from the last
	// event that happened to run.
	s.At(510, func() {})
	s.At(1000, func() {})
	s.RunUntil(600)
	if s.Now() != 600 || s.Pending() != 1 {
		t.Fatalf("now = %v pending = %d, want 600 and 1", s.Now(), s.Pending())
	}
	var fired Time
	s.After(100, func() { fired = s.Now() })
	s.RunUntil(800)
	if fired != 700 {
		t.Fatalf("After(100) from a stepped clock fired at %v, want 700", fired)
	}
}

func TestDrainBudget(t *testing.T) {
	s := NewSim()
	for i := 0; i < 10; i++ {
		s.At(Time(i), func() {})
	}
	if n := s.Drain(3); n != 3 {
		t.Fatalf("drained %d, want 3", n)
	}
	if n := s.Drain(0); n != 7 {
		t.Fatalf("drained %d, want 7", n)
	}
}

// TestQuickEventOrder property-tests that events always execute in
// non-decreasing time order regardless of insertion order.
func TestQuickEventOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		var times []Time
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := Time(rng.Int63n(1000))
			s.At(at, func() { times = append(times, s.Now()) })
		}
		s.Drain(0)
		if len(times) != n {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, tc := range tests {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int64(tc.in), got, tc.want)
		}
	}
}
