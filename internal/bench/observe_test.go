package bench

import (
	"testing"

	"skyloft/internal/obs/doctor"
	"skyloft/internal/obs/live"
	"skyloft/internal/simtime"
)

// TestObservedTailAttribution pins the doctor's tail attribution on a real
// run: the quick observed workload (4 cores, 10 µs ticks) at seed 1. The
// hand-built trace of TestAttributionBuckets covers each bucket's rule;
// this pins what the rules add up to on the occupancy replay of a full
// event stream.
func TestObservedTailAttribution(t *testing.T) {
	run := ObservedRun(1, 10*simtime.Millisecond, false)
	diag := doctor.Analyze(run.Events, run.Spans, doctor.Config{
		TickPeriod: simtime.Second / SkyloftTimerHz,
		Cores:      run.Workers,
	})
	want := doctor.AppAttribution{
		App:          0,
		TailSpans:    17,
		Threshold:    59904,
		Queue:        319087,
		TickQuant:    120000,
		PreemptDelay: 621062,
		Delivery:     23914,
		MaxLatency:   71938,
	}
	if len(diag.Attribution) != 1 || diag.Attribution[0] != want {
		t.Fatalf("attribution = %+v, want [%+v]", diag.Attribution, want)
	}
}

// TestDoctorWindowsMatchBus: the doctor replays the recorded events through
// the fold the live bus runs, so on one run at the same width every doctor
// window equals the bus's published one.
func TestDoctorWindowsMatchBus(t *testing.T) {
	var bus *live.Bus
	run := ObservedRunOpts(1, 10*simtime.Millisecond, ObserveOpts{
		PreRun: func(h RunHooks) {
			bus = live.Attach(live.Config{}, live.Source{Clock: h.Clock, Ring: h.Ring})
		},
	})
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	if run.Ring.Total() != uint64(len(run.Events)) {
		t.Fatalf("the ring kept %d of %d events; the doctor must see them all", len(run.Events), run.Ring.Total())
	}
	diag := doctor.Analyze(run.Events, run.Spans, doctor.Config{Cores: run.Workers})
	snaps := bus.History(-1)
	if len(diag.Windows) != 10 || len(snaps) != 10 {
		t.Fatalf("doctor has %d windows, bus %d; want 10 each", len(diag.Windows), len(snaps))
	}
	for i, w := range diag.Windows {
		if w != snaps[i].Window {
			t.Errorf("window %d: doctor %+v, bus %+v", i, w, snaps[i].Window)
		}
	}
}
