package faults

import (
	"strings"
	"testing"

	"skyloft/internal/simtime"
)

// TestPlanValidate pins the malformed-plan rejections: a plan that would
// silently inject nothing (or nonsense) must fail loudly at construction,
// not produce a green chaos gate over a no-op.
func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		want string // substring of the error, "" = valid
	}{
		{"valid-drop", Rule{Kind: IPIDrop, Core: -1, Rate: 0.5}, ""},
		{"rate-negative", Rule{Kind: IPIDrop, Rate: -0.1}, "rate"},
		{"rate-above-one", Rule{Kind: IPIDrop, Rate: 1.5}, "rate"},
		{"empty-window", Rule{Kind: IPIDrop, Rate: 1,
			From: simtime.Time(2 * simtime.Millisecond), Until: simtime.Time(simtime.Millisecond)}, "empty window"},
		{"delay-missing", Rule{Kind: IPIDelay, Rate: 1}, "needs Delay"},
		{"drift-missing", Rule{Kind: TimerDrift, Rate: 1}, "needs Delay"},
		{"stall-factor", Rule{Kind: CoreStall, Rate: 1, Until: simtime.Millisecond}, "Factor"},
		{"stall-unbounded", Rule{Kind: CoreStall, Rate: 1, Factor: 4}, "bounded window"},
	}
	for _, tc := range cases {
		p := &Plan{Name: tc.name, Seed: 1, Rules: []Rule{tc.rule}}
		err := p.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := (&Plan{Name: "empty", Seed: 1}).Validate(); err == nil {
		t.Error("plan with no rules validated")
	}
}

// TestPresets pins that every published preset name resolves, validates,
// and carries the seed through — and that unknown names are refused.
func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) != 5 {
		t.Fatalf("PresetNames() = %v, want 5 presets", names)
	}
	for _, name := range names {
		p, ok := Preset(name, 99)
		if !ok {
			t.Fatalf("Preset(%q) not found", name)
		}
		if p.Seed != 99 {
			t.Errorf("%s: seed %d not threaded through", name, p.Seed)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: preset does not validate: %v", name, err)
		}
	}
	if _, ok := Preset("no-such-plan", 1); ok {
		t.Error("unknown preset resolved")
	}
}

// TestRuleActive pins the window/core scoping a rule's active() applies.
func TestRuleActive(t *testing.T) {
	at := func(d simtime.Duration) simtime.Time { return simtime.Time(d) }
	r := Rule{Kind: IPIDrop, Core: 2, Rate: 1,
		From: at(simtime.Millisecond), Until: at(2 * simtime.Millisecond)}
	if r.active(2, at(500*simtime.Microsecond)) {
		t.Error("active before From")
	}
	if !r.active(2, at(simtime.Millisecond)) {
		t.Error("inactive at From (window is half-open, From included)")
	}
	if r.active(2, at(2*simtime.Millisecond)) {
		t.Error("active at Until (window is half-open, Until excluded)")
	}
	if r.active(1, at(1500*simtime.Microsecond)) {
		t.Error("active on the wrong core")
	}
	all := Rule{Kind: IPIDrop, Core: -1, Rate: 1}
	if !all.active(7, at(0)) || !all.active(0, at(simtime.Second)) {
		t.Error("Core -1 / Until 0 should match every core forever")
	}
}
