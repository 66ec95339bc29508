package lease

import (
	"fmt"
	"strings"
	"testing"

	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// fakeClient scripts borrower behavior: by default it yields on the first
// notification; set deaf to ignore every notification and force the full
// escalation into ForceEvict.
type fakeClient struct {
	clock   *simtime.Clock
	mgr     *Manager
	deaf    bool // ignore notifications (stalled / dropped-IPI borrower)
	yieldIn simtime.Duration

	notifies []int // attempt numbers seen
	evicts   int
}

func (f *fakeClient) ReclaimNotify(core, attempt int) {
	f.notifies = append(f.notifies, attempt)
	if f.deaf {
		return
	}
	f.clock.After(f.yieldIn, func() { f.mgr.Returned(core) })
}

func (f *fakeClient) ForceEvict(core int) {
	f.evicts++
	// The kernel-module yank lands after a short bounded delay.
	f.clock.After(simtime.Microsecond, func() { f.mgr.Returned(core) })
}

func newHarness(deaf bool) (*simtime.Clock, *Manager, *fakeClient, *trace.Ring) {
	clock := simtime.NewClock()
	ring := trace.New(1 << 10)
	fc := &fakeClient{clock: clock, deaf: deaf, yieldIn: 2 * simtime.Microsecond}
	mgr := NewManager(Config{}, clock, fc, ring)
	fc.mgr = mgr
	return clock, mgr, fc, ring
}

func TestReclaimBound(t *testing.T) {
	cfg := Config{
		Grace:        50 * simtime.Microsecond,
		RetryTimeout: 15 * simtime.Microsecond,
		RetryMax:     3,
		EvictSlack:   40 * simtime.Microsecond,
	}
	// 50 + (15 + 30 + 60) + 40 = 195µs.
	if got, want := cfg.ReclaimBound(), 195*simtime.Microsecond; got != want {
		t.Fatalf("ReclaimBound = %v, want %v", got, want)
	}
	if (Config{}).ReclaimBound() != cfg.ReclaimBound() {
		t.Fatal("defaults do not match the documented bound")
	}
}

func TestCooperativeReclaim(t *testing.T) {
	clock, mgr, fc, _ := newHarness(false)
	if err := mgr.Grant(3, 0, 7); err != nil {
		t.Fatal(err)
	}
	if mgr.StateOf(3) != Granted {
		t.Fatalf("state = %v", mgr.StateOf(3))
	}
	if !mgr.RequestReclaim(3) {
		t.Fatal("RequestReclaim refused a granted core")
	}
	if mgr.RequestReclaim(3) {
		t.Fatal("RequestReclaim not idempotent while reclaiming")
	}
	clock.Run(simtime.Time(simtime.Millisecond))
	if mgr.StateOf(3) != Idle {
		t.Fatalf("state after run = %v", mgr.StateOf(3))
	}
	if mgr.CooperativeReturns() != 1 || mgr.ForcedRevocations() != 0 {
		t.Fatalf("coop=%d forced=%d", mgr.CooperativeReturns(), mgr.ForcedRevocations())
	}
	if got := fc.notifies; len(got) != 1 || got[0] != 0 {
		t.Fatalf("notifies = %v", got)
	}
	if p99 := mgr.ReclaimHist().Quantile(0.99); p99 > mgr.Config().ReclaimBound() {
		t.Fatalf("cooperative p99 %v above bound", p99)
	}
}

func TestForcedRevocationEscalatesToEvict(t *testing.T) {
	clock, mgr, fc, ring := newHarness(true) // borrower ignores everything
	if err := mgr.Grant(2, 0, 7); err != nil {
		t.Fatal(err)
	}
	var transitions []State
	mgr.OnTransition = func(l Lease) { transitions = append(transitions, l.State) }
	mgr.RequestReclaim(2)
	clock.Run(simtime.Time(simtime.Millisecond))

	if mgr.ForcedRevocations() != 1 {
		t.Fatalf("forced revocations = %d", mgr.ForcedRevocations())
	}
	if mgr.Evictions() != 1 || fc.evicts != 1 {
		t.Fatalf("evictions = %d / client %d", mgr.Evictions(), fc.evicts)
	}
	if int(mgr.RevocationRetries()) != mgr.Config().RetryMax {
		t.Fatalf("retries = %d, want %d", mgr.RevocationRetries(), mgr.Config().RetryMax)
	}
	// Attempt numbers: cooperative 0, then forced 1..RetryMax.
	want := []int{0, 1, 2, 3}
	if len(fc.notifies) != len(want) {
		t.Fatalf("notifies = %v", fc.notifies)
	}
	for i, a := range want {
		if fc.notifies[i] != a {
			t.Fatalf("notifies = %v, want %v", fc.notifies, want)
		}
	}
	if mgr.StateOf(2) != Idle {
		t.Fatalf("state = %v", mgr.StateOf(2))
	}
	// Latency stayed within the proven bound even with a deaf borrower.
	if mgr.DeadlineMisses() != 0 {
		t.Fatalf("deadline misses = %d", mgr.DeadlineMisses())
	}
	if max := mgr.ReclaimHist().Max(); max > mgr.Config().ReclaimBound() {
		t.Fatalf("reclaim took %v, bound %v", max, mgr.Config().ReclaimBound())
	}
	// State trail: Reclaiming -> Revoking -> Idle.
	wantStates := []State{Reclaiming, Revoking, Idle}
	if len(transitions) != len(wantStates) {
		t.Fatalf("transitions = %v", transitions)
	}
	for i, s := range wantStates {
		if transitions[i] != s {
			t.Fatalf("transitions = %v, want %v", transitions, wantStates)
		}
	}
	// Trace carries the full lease lifecycle.
	st := ring.Counts()
	if st.LeaseEvents != 4 { // grant, reclaim, revoke, return
		t.Fatalf("lease trace events = %d", st.LeaseEvents)
	}
}

func TestDoubleGrantRejected(t *testing.T) {
	_, mgr, _, _ := newHarness(false)
	if err := mgr.Grant(1, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Grant(1, 0, 8); err == nil {
		t.Fatal("double grant accepted")
	}
	mgr.Returned(1)
	if err := mgr.Grant(1, 0, 8); err != nil {
		t.Fatalf("re-grant after return: %v", err)
	}
}

func TestVoluntaryReturnCancelsNothing(t *testing.T) {
	clock, mgr, fc, _ := newHarness(true)
	if err := mgr.Grant(4, 0, 7); err != nil {
		t.Fatal(err)
	}
	mgr.Returned(4) // borrower blocked; core came back on its own
	if mgr.VoluntaryReturns() != 1 || mgr.StateOf(4) != Idle {
		t.Fatalf("voluntary=%d state=%v", mgr.VoluntaryReturns(), mgr.StateOf(4))
	}
	mgr.Returned(4) // idempotent
	if mgr.VoluntaryReturns() != 1 {
		t.Fatal("double return counted twice")
	}
	clock.Run(simtime.Time(simtime.Millisecond))
	if len(fc.notifies) != 0 || mgr.ForcedRevocations() != 0 {
		t.Fatal("voluntary return triggered reclaim machinery")
	}
}

// TestLateCooperativeReturnDefusesEscalation: the borrower yields after the
// grace deadline (forced revocation already engaged) but before eviction —
// the pending escalation callbacks must become no-ops.
func TestLateCooperativeReturnDefusesEscalation(t *testing.T) {
	clock, mgr, fc, _ := newHarness(true)
	if err := mgr.Grant(5, 0, 7); err != nil {
		t.Fatal(err)
	}
	mgr.RequestReclaim(5)
	// Yield just after the first forced resend.
	clock.After(mgr.Config().Grace+mgr.Config().RetryTimeout+simtime.Microsecond,
		func() { mgr.Returned(5) })
	clock.Run(simtime.Time(simtime.Millisecond))
	if fc.evicts != 0 {
		t.Fatal("eviction fired after the core was already back")
	}
	if mgr.ForcedRevocations() != 1 {
		t.Fatalf("forced revocations = %d", mgr.ForcedRevocations())
	}
	if mgr.StateOf(5) != Idle {
		t.Fatalf("state = %v", mgr.StateOf(5))
	}
}

func TestAuditReportsOverdueAndOwnership(t *testing.T) {
	clock, mgr, _, _ := newHarness(true)
	if err := mgr.Grant(6, 0, 7); err != nil {
		t.Fatal(err)
	}
	// Break the client contract on purpose: swallow the eviction so the
	// lease wedges in Revoking past the bound.
	mgr.client = deadClient{}
	mgr.RequestReclaim(6)
	// Pin an event past the bound so virtual time actually advances there
	// (the clock stops at its last pending event).
	clock.After(simtime.Millisecond, func() {})
	clock.Run(simtime.Time(simtime.Millisecond))
	var got []string
	mgr.AuditLeases(func(format string, args ...any) {
		got = append(got, strings.TrimSpace(formatf(format, args...)))
	})
	if len(got) != 1 || !strings.Contains(got[0], "past the") {
		t.Fatalf("audit = %v", got)
	}
	// Reported once, not on every sweep.
	got = got[:0]
	mgr.AuditLeases(func(format string, args ...any) {
		got = append(got, formatf(format, args...))
	})
	if len(got) != 0 {
		t.Fatalf("overdue re-reported: %v", got)
	}
	if mgr.DeadlineMisses() == 0 {
		t.Fatal("deadline miss not counted")
	}

	// Ownership cross-check: a granted core whose active kthread belongs
	// to a third app is a violation.
	if err := mgr.Grant(9, 0, 7); err != nil {
		t.Fatal(err)
	}
	mgr.SetBindingAudit(func(core int) (int, bool) { return 3, true })
	got = got[:0]
	mgr.AuditLeases(func(format string, args ...any) {
		got = append(got, formatf(format, args...))
	})
	if len(got) != 1 || !strings.Contains(got[0], "kthread is active") {
		t.Fatalf("ownership audit = %v", got)
	}
}

type deadClient struct{}

func (deadClient) ReclaimNotify(core, attempt int) {}
func (deadClient) ForceEvict(core int)             {}

func formatf(format string, args ...any) string {
	return strings.TrimSpace(fmt.Sprintf(format, args...))
}
