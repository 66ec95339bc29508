package kmod

import (
	"errors"
	"testing"

	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/simtime"
	"skyloft/internal/uintrsim"
)

func newModule() *Module {
	cfg := hw.DefaultConfig()
	cfg.Cores = 4
	cfg.CoresPerSocket = 2
	return New(hw.NewMachine(cfg), cycles.Default())
}

// must unwraps a binding call the test expects to succeed.
func must(kt *KThread, err error) *KThread {
	if err != nil {
		panic(err)
	}
	return kt
}

func TestBindingRuleAcrossApps(t *testing.T) {
	mod := newModule()
	a0 := must(mod.CreateBound(0, 0)) // daemon app active on core 0
	a1 := must(mod.ParkOnCPU(1, 0))   // second app parks
	if !a0.Active || a1.Active {
		t.Fatal("initial active states wrong")
	}
	if got := mod.ActiveOn(0); got != a0 {
		t.Fatalf("ActiveOn(0) = %v", got)
	}
	cost, err := mod.SwitchTo(a1.TID)
	if err != nil {
		t.Fatal(err)
	}
	if cost != cycles.Default().AppSwitch {
		t.Fatalf("switch cost = %v, want %v", cost, cycles.Default().AppSwitch)
	}
	if a0.Active || !a1.Active {
		t.Fatal("SwitchTo did not flip active states")
	}
	if mod.Switches() != 1 {
		t.Fatalf("Switches() = %d", mod.Switches())
	}
}

func TestSwitchToSelfIsFree(t *testing.T) {
	mod := newModule()
	a := must(mod.CreateBound(0, 1))
	cost, err := mod.SwitchTo(a.TID)
	if err != nil || cost != 0 {
		t.Fatalf("self-switch cost=%v err=%v", cost, err)
	}
}

func TestWakeupRefusesSecondActive(t *testing.T) {
	mod := newModule()
	must(mod.CreateBound(0, 2))
	b := must(mod.ParkOnCPU(1, 2))
	if _, err := mod.Wakeup(b.TID); err == nil {
		t.Fatal("Wakeup violated the Single Binding Rule without error")
	}
}

func TestWakeupIdleCore(t *testing.T) {
	mod := newModule()
	a := must(mod.CreateBound(0, 3))
	b := must(mod.ParkOnCPU(1, 3))
	if _, err := mod.SwitchTo(b.TID); err != nil {
		t.Fatal(err)
	}
	// Park b too (app blocked): core has no active thread.
	b.Active = false
	b.parked = true
	cost, err := mod.Wakeup(a.TID)
	if err != nil {
		t.Fatal(err)
	}
	if cost != cycles.Default().KthreadSwitchWake {
		t.Fatalf("wake cost = %v", cost)
	}
	if mod.ActiveOn(3) != a {
		t.Fatal("app 0 not active after Wakeup")
	}
}

func TestExitRemovesThread(t *testing.T) {
	mod := newModule()
	a := must(mod.CreateBound(0, 0))
	if err := mod.Exit(a.TID); err != nil {
		t.Fatal(err)
	}
	if mod.Lookup(a.TID) != nil || len(mod.ThreadsOn(0)) != 0 {
		t.Fatal("Exit left the thread registered")
	}
	if err := mod.Exit(a.TID); err == nil {
		t.Fatal("double Exit did not error")
	}
}

func TestFindFor(t *testing.T) {
	mod := newModule()
	must(mod.CreateBound(0, 1))
	b := must(mod.ParkOnCPU(1, 1))
	if got := mod.FindFor(1, 1); got != b {
		t.Fatalf("FindFor(1,1) = %v", got)
	}
	if mod.FindFor(2, 1) != nil {
		t.Fatal("FindFor found a nonexistent app")
	}
}

func TestSwitchToUnknownTID(t *testing.T) {
	mod := newModule()
	if _, err := mod.SwitchTo(424242); err == nil {
		t.Fatal("SwitchTo unknown tid did not error")
	}
	if _, err := mod.Wakeup(424242); err == nil {
		t.Fatal("Wakeup unknown tid did not error")
	}
}

// TestBindingViolationPaths drives every documented way an application can
// try to break the Single Binding Rule or an active lease, and checks that
// each returns its sentinel error with ownership untouched — no silent
// corruption, no panic.
func TestBindingViolationPaths(t *testing.T) {
	cases := []struct {
		name string
		// setup returns the core under test with threads/leases arranged.
		setup   func(mod *Module) int
		attempt func(mod *Module, core int) error
		want    error
	}{
		{
			name:  "double-bind",
			setup: func(mod *Module) int { must(mod.CreateBound(0, 1)); return 1 },
			attempt: func(mod *Module, core int) error {
				_, err := mod.CreateBound(1, core)
				return err
			},
			want: ErrDoubleBind,
		},
		{
			name: "wakeup-double-bind",
			setup: func(mod *Module) int {
				must(mod.CreateBound(0, 1))
				must(mod.ParkOnCPU(1, 1))
				return 1
			},
			attempt: func(mod *Module, core int) error {
				_, err := mod.Wakeup(mod.FindFor(1, core).TID)
				return err
			},
			want: ErrDoubleBind,
		},
		{
			name: "bind-while-leased",
			setup: func(mod *Module) int {
				must(mod.ParkOnCPU(0, 2)) // lender's thread, parked (core idle)
				must(mod.ParkOnCPU(7, 2)) // borrower's thread
				mod.MarkLeased(2, 0, 7)
				return 2
			},
			attempt: func(mod *Module, core int) error {
				_, err := mod.CreateBound(3, core) // third party
				return err
			},
			want: ErrCoreLeased,
		},
		{
			name: "park-while-leased",
			setup: func(mod *Module) int {
				must(mod.CreateBound(0, 2))
				must(mod.ParkOnCPU(7, 2))
				mod.MarkLeased(2, 0, 7)
				return 2
			},
			attempt: func(mod *Module, core int) error {
				_, err := mod.ParkOnCPU(3, core)
				return err
			},
			want: ErrCoreLeased,
		},
		{
			name: "switch-to-third-party-while-leased",
			setup: func(mod *Module) int {
				must(mod.CreateBound(0, 3))
				must(mod.ParkOnCPU(7, 3))
				must(mod.ParkOnCPU(4, 3)) // bound before the lease began
				mod.MarkLeased(3, 0, 7)
				return 3
			},
			attempt: func(mod *Module, core int) error {
				_, err := mod.SwitchTo(mod.FindFor(4, core).TID)
				return err
			},
			want: ErrCoreLeased,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod := newModule()
			core := tc.setup(mod)
			before := mod.ActiveOn(core)
			nThreads := len(mod.ThreadsOn(core))
			err := tc.attempt(mod, core)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if got := mod.ActiveOn(core); got != before {
				t.Fatalf("active thread changed across failed op: %v -> %v", before, got)
			}
			if got := len(mod.ThreadsOn(core)); got != nThreads {
				t.Fatalf("failed op leaked a binding: %d threads -> %d", nThreads, got)
			}
		})
	}
}

// TestLeasePartiesMayBind checks the positive paths: the lease's borrower
// and lender stay fully operational on the leased core, and clearing the
// lease reopens it to everyone.
func TestLeasePartiesMayBind(t *testing.T) {
	mod := newModule()
	lender := must(mod.CreateBound(0, 1))
	borrower := must(mod.ParkOnCPU(7, 1))
	mod.MarkLeased(1, 0, 7)
	if _, err := mod.SwitchTo(borrower.TID); err != nil {
		t.Fatalf("borrower switch under lease: %v", err)
	}
	if _, err := mod.SwitchTo(lender.TID); err != nil {
		t.Fatalf("lender reclaim switch under lease: %v", err)
	}
	if l, b, ok := mod.LeaseOn(1); !ok || l != 0 || b != 7 {
		t.Fatalf("LeaseOn = (%d,%d,%v)", l, b, ok)
	}
	mod.ClearLease(1)
	if _, _, ok := mod.LeaseOn(1); ok {
		t.Fatal("lease survived ClearLease")
	}
	if _, err := mod.ParkOnCPU(3, 1); err != nil {
		t.Fatalf("third party park after ClearLease: %v", err)
	}
}

func TestTimerEnableDelegates(t *testing.T) {
	cfg := hw.DefaultConfig()
	cfg.Cores = 1
	m := hw.NewMachine(cfg)
	cost := cycles.Default()
	mod := New(m, cost)
	recv := uintrsim.NewReceiver(m.Cores[0], cost)
	send := uintrsim.NewSender(m.Cores[0], cost)
	fired := 0
	var deleg *uintrsim.TimerDelegation
	recv.Register(0xEF, func(uint8, simtime.Duration) {
		fired++
		recv.Core().Exec(deleg.Rearm(), func() { recv.UIRet() })
	})
	var ioctlCost simtime.Duration
	deleg, ioctlCost = mod.TimerEnable(recv, send, 1_000_000) // 1 MHz
	if ioctlCost != cost.Syscall {
		t.Fatalf("ioctl cost = %v", ioctlCost)
	}
	m.Clock.Run(10 * simtime.Microsecond)
	deleg.Stop()
	if fired < 9 {
		t.Fatalf("only %d delegated ticks in 10us at 1MHz", fired)
	}
	if c := mod.TimerSetHz(deleg, 100_000); c != cost.Syscall {
		t.Fatalf("TimerSetHz cost = %v", c)
	}
}
