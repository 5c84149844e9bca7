package obs

import "testing"

// TestRingWraparound: after three capacities of pushes the ring holds
// exactly the newest capacity values, oldest first, at every step.
func TestRingWraparound(t *testing.T) {
	const capacity = 5
	r := NewRing[int](capacity)
	if got := r.AppendTo(nil); len(got) != 0 {
		t.Fatalf("empty ring holds %v", got)
	}
	for i := 1; i <= 3*capacity; i++ {
		r.Push(i)
		want := min(i, capacity)
		got := r.AppendTo(nil)
		if r.Len() != want || len(got) != want {
			t.Fatalf("after %d pushes: Len %d, %d values; want %d", i, r.Len(), len(got), want)
		}
		for j, v := range got {
			if v != i-want+1+j {
				t.Fatalf("after %d pushes: %v, want %d..%d oldest first", i, got, i-want+1, i)
			}
		}
	}
}
