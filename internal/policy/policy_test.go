package policy

import (
	"testing"
	"testing/quick"

	"skyloft/internal/sched"
)

func TestDequeFIFOOrder(t *testing.T) {
	var d Deque
	a := &sched.Thread{ID: 1}
	b := &sched.Thread{ID: 2}
	c := &sched.Thread{ID: 3}
	d.PushBack(a)
	d.PushBack(b)
	d.PushFront(c)
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	if d.PopFront() != c || d.PopFront() != a || d.PopFront() != b {
		t.Fatal("deque order wrong")
	}
	if d.PopFront() != nil || d.PopBack() != nil {
		t.Fatal("empty deque should pop nil")
	}
}

func TestDequePopBack(t *testing.T) {
	var d Deque
	a := &sched.Thread{ID: 1}
	b := &sched.Thread{ID: 2}
	d.PushBack(a)
	d.PushBack(b)
	if d.PopBack() != b || d.PopBack() != a {
		t.Fatal("PopBack order wrong")
	}
}

func TestPlacerPrefersIdleLastCPU(t *testing.T) {
	var p Placer
	th := &sched.Thread{LastCPU: 2}
	if got := p.Pick(th, []bool{true, false, true, false}); got != 2 {
		t.Fatalf("Pick = %d, want last CPU 2", got)
	}
}

func TestPlacerFallsToAnyIdle(t *testing.T) {
	var p Placer
	th := &sched.Thread{LastCPU: 2}
	if got := p.Pick(th, []bool{false, true, false, false}); got != 1 {
		t.Fatalf("Pick = %d, want idle CPU 1", got)
	}
}

func TestPlacerBusyFallsToLastCPU(t *testing.T) {
	var p Placer
	th := &sched.Thread{LastCPU: 3}
	if got := p.Pick(th, []bool{false, false, false, false}); got != 3 {
		t.Fatalf("Pick = %d, want last CPU 3", got)
	}
}

func TestPlacerSpreadsNewTasks(t *testing.T) {
	var p Placer
	seen := map[int]int{}
	for i := 0; i < 12; i++ {
		th := &sched.Thread{LastCPU: -1}
		seen[p.Pick(th, []bool{false, false, false, false})]++
	}
	for cpu := 0; cpu < 4; cpu++ {
		if seen[cpu] != 3 {
			t.Fatalf("round-robin spread uneven: %v", seen)
		}
	}
}

// Property: Placer always returns a valid index.
func TestQuickPlacerInRange(t *testing.T) {
	f := func(last int8, mask []bool) bool {
		if len(mask) == 0 {
			return true
		}
		var p Placer
		th := &sched.Thread{LastCPU: int(last)}
		got := p.Pick(th, mask)
		return got >= 0 && got < len(mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Deque behaves like a reference slice under arbitrary
// push/pop sequences.
func TestQuickDequeVsReference(t *testing.T) {
	f := func(ops []uint8) bool {
		var d Deque
		var ref []*sched.Thread
		mk := func(i int) *sched.Thread { return &sched.Thread{ID: i} }
		for i, op := range ops {
			switch op % 4 {
			case 0:
				th := mk(i)
				d.PushBack(th)
				ref = append(ref, th)
			case 1:
				th := mk(i)
				d.PushFront(th)
				ref = append([]*sched.Thread{th}, ref...)
			case 2:
				got := d.PopFront()
				var want *sched.Thread
				if len(ref) > 0 {
					want = ref[0]
					ref = ref[1:]
				}
				if got != want {
					return false
				}
			case 3:
				got := d.PopBack()
				var want *sched.Thread
				if len(ref) > 0 {
					want = ref[len(ref)-1]
					ref = ref[:len(ref)-1]
				}
				if got != want {
					return false
				}
			}
			if d.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// dequeCycle is one warmed runqueue round: enqueue, requeue at the head,
// dispatch from the front and steal from the back.
func dequeCycle(d *Deque, a, b, c *sched.Thread) {
	d.PushBack(a)
	d.PushBack(b)
	d.PushFront(c)
	d.PopFront()
	d.PopBack()
	d.PopFront()
}

// TestDequeSteadyStateAllocs: once a runqueue has reached its high-water
// mark, a push/pop/PushFront/PopBack cycle allocates nothing.
func TestDequeSteadyStateAllocs(t *testing.T) {
	var d Deque
	a, b, c := &sched.Thread{ID: 1}, &sched.Thread{ID: 2}, &sched.Thread{ID: 3}
	for i := 0; i < 5; i++ {
		d.PushBack(a) // a standing backlog, so the cycle slides across the ring
	}
	dequeCycle(&d, a, b, c)
	if allocs := testing.AllocsPerRun(1000, func() { dequeCycle(&d, a, b, c) }); allocs != 0 {
		t.Fatalf("warmed Deque cycle allocates %.1f objects, want 0", allocs)
	}
}

func BenchmarkDeque(b *testing.B) {
	var d Deque
	x, y, z := &sched.Thread{ID: 1}, &sched.Thread{ID: 2}, &sched.Thread{ID: 3}
	dequeCycle(&d, x, y, z)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dequeCycle(&d, x, y, z)
	}
}

type dataA struct{ x, y int }
type dataB struct{ z int }

func TestResetDataReusesAndClears(t *testing.T) {
	th := &sched.Thread{}
	d := ResetData[dataA](th)
	if th.PolData != any(d) {
		t.Fatal("ResetData did not install its object in PolData")
	}
	d.x, d.y = 3, 4
	again := ResetData[dataA](th)
	if again != d {
		t.Fatal("ResetData allocated although PolData held a *T")
	}
	if *again != (dataA{}) {
		t.Fatalf("ResetData left state %+v, want zero", *again)
	}
	if allocs := testing.AllocsPerRun(100, func() { ResetData[dataA](th) }); allocs != 0 {
		t.Fatalf("ResetData on a recycled thread allocates %.1f objects", allocs)
	}
}

func TestResetDataReplacesForeignType(t *testing.T) {
	th := &sched.Thread{PolData: &dataB{z: 9}}
	d := ResetData[dataA](th)
	if d == nil || *d != (dataA{}) {
		t.Fatal("ResetData on a foreign PolData must return a fresh zero *T")
	}
	if _, ok := th.PolData.(*dataA); !ok {
		t.Fatalf("PolData is %T, want *dataA", th.PolData)
	}
	var nilA *dataA
	th.PolData = nilA
	if ResetData[dataA](th) == nil {
		t.Fatal("ResetData returned nil for a typed-nil PolData")
	}
}
