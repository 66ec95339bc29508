package simtime

import "testing"

// The schedule/dispatch microbenchmarks model the simulator's dominant
// workload: per-core periodic tick streams (100 kHz LAPIC timers) that
// re-arm themselves on every firing, plus a jittered one-shot event with an
// occasional cancel — the pattern every engine run reduces to. The same
// loop runs against the pooled timer-wheel Clock and the reference
// binary-heap HeapClock so `-benchmem` shows the allocation and time delta.
// BenchmarkClockRun dispatches the same load through Run windows, the way
// the engines and cmd/hostbench drive the clock, so it also pays the
// horizon check that a bare Step loop skips.

const (
	benchStreams = 24                     // one tick stream per simulated core
	benchPeriod  = Time(10 * Microsecond) // 100 kHz
)

// loadClock arms the benchmark's tick streams and cancelling one-shot.
func loadClock(c *Clock) {
	for i := 0; i < benchStreams; i++ {
		var fire func()
		fire = func() { c.After(benchPeriod, fire) }
		c.After(Time(i), fire)
	}
	var oneshot Event
	n := 0
	rearmCancel := func() {}
	rearmCancel = func() {
		if n++; n%4 == 0 {
			c.Cancel(oneshot)
		}
		oneshot = c.After(benchPeriod/2+Time(n%64), rearmCancel)
	}
	c.After(1, rearmCancel)
}

func BenchmarkClockTimerWheel(b *testing.B) {
	c := NewClock()
	loadClock(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkClockRun reports ns per dispatched event; the last 1 ms window
// may overshoot b.N by one window's events (~2,600), which is noise at any
// b.N the default -benchtime reaches.
func BenchmarkClockRun(b *testing.B) {
	c := NewClock()
	loadClock(c)
	b.ReportAllocs()
	b.ResetTimer()
	for end := c.Dispatched() + uint64(b.N); c.Dispatched() < end; {
		c.Run(c.Now() + Millisecond)
	}
}

func BenchmarkClockHeap(b *testing.B) {
	c := NewHeapClock()
	for i := 0; i < benchStreams; i++ {
		var fire func()
		fire = func() { c.After(benchPeriod, fire) }
		c.After(Time(i), fire)
	}
	var oneshot *HeapEvent
	n := 0
	rearmCancel := func() {}
	rearmCancel = func() {
		if n++; n%4 == 0 {
			c.Cancel(oneshot)
		}
		oneshot = c.After(benchPeriod/2+Time(n%64), rearmCancel)
	}
	c.After(1, rearmCancel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
