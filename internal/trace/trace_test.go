package trace

import (
	"strings"
	"testing"

	"skyloft/internal/simtime"
)

func TestRingRetainsAndWraps(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{At: simtime.Time(i), Kind: Dispatch, Task: i})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Task != 6+i {
			t.Fatalf("chronology broken: %v", evs)
		}
	}
	if r.Count(Dispatch) != 10 {
		t.Fatalf("Count(Dispatch) = %d", r.Count(Dispatch))
	}
}

func TestValidateAcceptsCleanSchedule(t *testing.T) {
	evs := []Event{
		{Kind: Dispatch, CPU: 0, Task: 1},
		{Kind: Preempt, CPU: 0, Task: 1},
		{Kind: Dispatch, CPU: 0, Task: 2},
		{Kind: Dispatch, CPU: 1, Task: 1},
		{Kind: Block, CPU: 1, Task: 1},
		{Kind: Wake, CPU: -1, Task: 1},
		{Kind: Dispatch, CPU: 1, Task: 1},
		{Kind: Exit, CPU: 1, Task: 1},
		{Kind: Yield, CPU: 0, Task: 2},
	}
	if err := Validate(evs); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		events  []Event
		wantErr string // substring of the violation, "" = valid
	}{
		{
			name: "double occupancy",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Dispatch, CPU: 0, Task: 2},
			},
			wantErr: "core already runs",
		},
		{
			name: "task on two cores",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Dispatch, CPU: 1, Task: 1},
			},
			wantErr: "task already on core",
		},
		{
			name:    "off-CPU on idle core",
			events:  []Event{{Kind: Yield, CPU: 3, Task: 9}},
			wantErr: "off-CPU event on idle core",
		},
		{
			name: "off-CPU names wrong task",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Block, CPU: 0, Task: 2},
			},
			wantErr: "core runs task 1, not 2",
		},
		{
			name: "dispatch after exit",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Exit, CPU: 0, Task: 1},
				{Kind: Dispatch, CPU: 0, Task: 1},
			},
			wantErr: "dispatch of exited task",
		},
		{
			name: "steal then dispatch on stealing core",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Preempt, CPU: 0, Task: 1},
				{Kind: Steal, CPU: 1, Task: 1},
				{Kind: Dispatch, CPU: 1, Task: 1},
			},
		},
		{
			name: "stolen task dispatched from old runqueue",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Preempt, CPU: 0, Task: 1},
				{Kind: Steal, CPU: 1, Task: 1},
				{Kind: Dispatch, CPU: 0, Task: 1},
			},
			wantErr: "stolen to core 1",
		},
		{
			name: "re-steal moves ownership again",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Yield, CPU: 0, Task: 1},
				{Kind: Steal, CPU: 1, Task: 1},
				{Kind: Steal, CPU: 2, Task: 1},
				{Kind: Dispatch, CPU: 2, Task: 1},
			},
		},
		{
			name: "steal of running task",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Steal, CPU: 1, Task: 1},
			},
			wantErr: "steal of task running on core 0",
		},
		{
			name: "steal of exited task",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Exit, CPU: 0, Task: 1},
				{Kind: Steal, CPU: 1, Task: 1},
			},
			wantErr: "steal of exited task",
		},
		{
			name: "ownership cleared after stolen dispatch",
			events: []Event{
				{Kind: Dispatch, CPU: 0, Task: 1},
				{Kind: Preempt, CPU: 0, Task: 1},
				{Kind: Steal, CPU: 1, Task: 1},
				{Kind: Dispatch, CPU: 1, Task: 1},
				{Kind: Preempt, CPU: 1, Task: 1},
				{Kind: Dispatch, CPU: 0, Task: 1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.events)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid sequence rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("violation %q accepted", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestCountsMatchesLifetime(t *testing.T) {
	r := New(2) // tiny window: counts must survive eviction
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: Dispatch, Task: i})
	}
	r.Record(Event{Kind: Wake, Task: 1})
	r.Record(Event{Kind: Steal, CPU: 1, Task: 1})
	s := r.Counts()
	if s.Dispatches != 5 || s.Wakes != 1 || s.Steals != 1 {
		t.Fatalf("lifetime counts wrong: %+v", s)
	}
	// The window only retains the last two events.
	w := Summarise(r.Events())
	if w.Dispatches != 0 || w.Wakes != 1 || w.Steals != 1 {
		t.Fatalf("window summary wrong: %+v", w)
	}
}

func TestResetKeepsLifetimeState(t *testing.T) {
	r := New(4)
	for i := 0; i < 6; i++ {
		r.Record(Event{At: simtime.Time(i), Kind: Dispatch, Task: i})
	}
	hash, total := r.Hash(), r.Total()
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatal("Reset did not clear the window")
	}
	if r.Hash() != hash || r.Total() != total || r.Counts().Dispatches != 6 {
		t.Fatal("Reset lost lifetime state")
	}
	// The ring refills from scratch after Reset, in order.
	for i := 10; i < 13; i++ {
		r.Record(Event{At: simtime.Time(i), Kind: Wake, Task: i})
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Task != 10 || evs[2].Task != 12 {
		t.Fatalf("post-Reset window wrong: %v", evs)
	}
}

func TestAppendEventsReusesBuffer(t *testing.T) {
	r := New(8)
	for i := 0; i < 12; i++ { // wraps
		r.Record(Event{At: simtime.Time(i), Kind: Dispatch, Task: i})
	}
	buf := make([]Event, 0, 8)
	got := r.AppendEvents(buf[:0])
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendEvents reallocated despite sufficient capacity")
	}
	if len(got) != 8 || got[0].Task != 4 || got[7].Task != 11 {
		t.Fatalf("AppendEvents window wrong: %v", got)
	}
	// Events() is AppendEvents(nil).
	if evs := r.Events(); len(evs) != len(got) || evs[0] != got[0] {
		t.Fatalf("Events/AppendEvents disagree: %v vs %v", evs, got)
	}
}

func TestDumpAndStrings(t *testing.T) {
	for k := Dispatch; k <= Steal; k++ {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestSummarise(t *testing.T) {
	s := Summarise([]Event{
		{Kind: Dispatch}, {Kind: Dispatch}, {Kind: Preempt},
		{Kind: Wake}, {Kind: Steal}, {Kind: AppSwitch}, {Kind: Block},
	})
	if s.Dispatches != 2 || s.Preempts != 1 || s.Wakes != 1 ||
		s.Steals != 1 || s.AppSwitches != 1 || s.Blocks != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

// TestRemoveTapDuringRecord is the regression test for tap removal during
// an in-flight window close: a live-telemetry window sink tears itself (or
// a sibling) down from inside its own tap callback, while Record is still
// iterating the tap slice. The contract: removing a LATER tap from an
// earlier one takes effect within the same Record (the nil slot is skipped),
// removing the CURRENT tap takes effect from the next Record, slots are
// never reused so handles stay stable, and a tap added mid-Record must not
// fire for the event already being delivered.
func TestRemoveTapDuringRecord(t *testing.T) {
	r := New(8)
	var fired []string

	var idSelf, idLater, idAdded int
	idSelf = r.AddTap(func(ev Event) {
		fired = append(fired, "self")
		r.RemoveTap(idSelf)  // current tap: next Record onward
		r.RemoveTap(idLater) // later tap: this Record already
		idAdded = r.AddTap(func(Event) { fired = append(fired, "added") })
	})
	idLater = r.AddTap(func(ev Event) { fired = append(fired, "later") })

	r.Record(Event{Kind: Dispatch})
	// "self" ran and removed both itself and "later"; "later" must not have
	// fired. The tap added mid-iteration grows the slice Record is ranging
	// over — Go's range snapshots the length, so it must not fire either.
	if got, want := strings.Join(fired, ","), "self"; got != want {
		t.Fatalf("first Record fired %q, want %q", got, want)
	}

	fired = nil
	r.Record(Event{Kind: Wake})
	// Only the mid-flight addition survives to the second Record.
	if got, want := strings.Join(fired, ","), "added"; got != want {
		t.Fatalf("second Record fired %q, want %q", got, want)
	}

	// Slots are not reused: the handle minted inside the first Record is
	// distinct from both removed slots, and removing a dead slot again (or
	// an out-of-range id) is a no-op rather than a panic.
	if idAdded == idSelf || idAdded == idLater {
		t.Fatalf("tap slot reused: added=%d self=%d later=%d", idAdded, idSelf, idLater)
	}
	r.RemoveTap(idLater)
	r.RemoveTap(-1)
	r.RemoveTap(1 << 20)

	fired = nil
	r.Record(Event{Kind: Exit})
	if got, want := strings.Join(fired, ","), "added"; got != want {
		t.Fatalf("third Record fired %q, want %q", got, want)
	}
	if r.Total() != 3 {
		t.Fatalf("Total = %d, want 3 (tap churn must not affect recording)", r.Total())
	}
}
