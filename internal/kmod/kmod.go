// Package kmod simulates the Skyloft kernel module (§3.3, §4.2): a small
// privileged helper mounted at /dev/skyloft that the user-space scheduler
// reaches via ioctl(). It owns the operations user space cannot perform —
// atomically parking/waking kernel threads so that the Single Binding Rule
// holds, and configuring user-space timer interrupts — and charges each the
// paper's measured costs (inter-application switch: 1,905 ns; ioctl round
// trip for configuration calls).
package kmod

import (
	"errors"
	"fmt"

	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/simtime"
	"skyloft/internal/uintrsim"
)

// Sentinel errors for the binding paths. Callers match on these with
// errors.Is; the messages returned wrap them with core/tid detail.
var (
	// ErrDoubleBind: the core already has an active kernel thread, so
	// activating another would violate the Single Binding Rule.
	ErrDoubleBind = errors.New("kmod: core already has an active kernel thread (Single Binding Rule)")
	// ErrCoreLeased: the core is under an active lease and the requested
	// thread belongs to neither the borrower nor the lender.
	ErrCoreLeased = errors.New("kmod: core is leased to another application")
)

// KThread is one application's kernel thread bound to one isolated core.
// Skyloft creates, per application, one kernel thread per isolated core; at
// most one of a core's kernel threads is active at any instant.
type KThread struct {
	TID    int
	App    int
	Core   int
	Active bool
	parked bool // suspended via ParkOnCPU / SwitchTo
}

func (k *KThread) String() string {
	return fmt.Sprintf("kthread{tid=%d app=%d core=%d active=%v}", k.TID, k.App, k.Core, k.Active)
}

// leaseMark is the module's view of one core lease: who lent it and who
// borrowed it. The module does not run the lease state machine
// (internal/lease does); it only enforces that binding operations on a
// leased core name the two parties.
type leaseMark struct {
	lender   int
	borrower int
}

// Module is the simulated kernel module instance.
type Module struct {
	m       *hw.Machine
	cost    cycles.Model
	nextTID int
	cores   map[int][]*KThread // isolated core -> its kernel threads
	byTID   map[int]*KThread
	leases  map[int]leaseMark // isolated core -> active lease, if any

	switches uint64 // inter-application switches performed
}

// New creates the module for machine m.
func New(m *hw.Machine, cost cycles.Model) *Module {
	return &Module{
		m:       m,
		cost:    cost,
		nextTID: 1000, // arbitrary TID base, like real gettid() values
		cores:   make(map[int][]*KThread),
		byTID:   make(map[int]*KThread),
		leases:  make(map[int]leaseMark),
	}
}

// Switches reports the number of inter-application switches performed.
func (mod *Module) Switches() uint64 { return mod.switches }

// MarkLeased records that core is lent by lender to borrower. While the
// mark is present, CreateBound, ParkOnCPU, SwitchTo and Wakeup refuse
// kernel threads of any third application on that core.
func (mod *Module) MarkLeased(core, lender, borrower int) {
	mod.leases[core] = leaseMark{lender: lender, borrower: borrower}
}

// ClearLease removes core's lease mark (reclaim or voluntary return
// completed).
func (mod *Module) ClearLease(core int) { delete(mod.leases, core) }

// LeaseOn reports core's lease mark, if any.
func (mod *Module) LeaseOn(core int) (lender, borrower int, ok bool) {
	l, ok := mod.leases[core]
	return l.lender, l.borrower, ok
}

// leaseAllows reports whether app may bind/activate a thread on a leased
// core: only the lease's two parties may, everyone else gets ErrCoreLeased.
func (mod *Module) leaseAllows(core, app int) error {
	l, ok := mod.leases[core]
	if !ok || app == l.borrower || app == l.lender {
		return nil
	}
	return fmt.Errorf("kmod: core %d leased by app %d to app %d, app %d may not bind: %w",
		core, l.lender, l.borrower, app, ErrCoreLeased)
}

// CreateBound registers a new kernel thread for app bound to core and
// immediately active — the daemon's initial threads (§4.1), which bind with
// plain sched_setaffinity. Binding onto a core that already has an active
// thread reports ErrDoubleBind (the Single Binding Rule), and binding a
// third party's thread onto a leased core reports ErrCoreLeased. On error
// no thread is created and ownership is untouched.
func (mod *Module) CreateBound(app, core int) (*KThread, error) {
	if curr := mod.ActiveOn(core); curr != nil {
		return nil, fmt.Errorf("kmod: core %d already has active kthread tid %d: %w",
			core, curr.TID, ErrDoubleBind)
	}
	if err := mod.leaseAllows(core, app); err != nil {
		return nil, err
	}
	t := mod.create(app, core)
	t.Active = true
	return t, nil
}

// ParkOnCPU registers a new kernel thread for app, binds it to core and
// suspends it before it ever runs (skyloft_park_on_cpu). Subsequent
// applications join this way so the rule is never violated. A leased core
// accepts only the lease parties (ErrCoreLeased); on error no thread is
// created.
func (mod *Module) ParkOnCPU(app, core int) (*KThread, error) {
	if err := mod.leaseAllows(core, app); err != nil {
		return nil, err
	}
	t := mod.create(app, core)
	t.parked = true
	return t, nil
}

func (mod *Module) create(app, core int) *KThread {
	mod.nextTID++
	t := &KThread{TID: mod.nextTID, App: app, Core: core}
	mod.cores[core] = append(mod.cores[core], t)
	mod.byTID[t.TID] = t
	return t
}

// SwitchTo suspends the core's currently active kernel thread and wakes the
// target (skyloft_switch_to): the application-switch path of Figure 4. Both
// transitions happen atomically in the kernel. It returns the time the
// operation occupies the core (the measured 1,905 ns inter-application
// switch). The caller charges it.
func (mod *Module) SwitchTo(targetTID int) (simtime.Duration, error) {
	target, ok := mod.byTID[targetTID]
	if !ok {
		return 0, fmt.Errorf("kmod: no kernel thread with tid %d", targetTID)
	}
	if err := mod.leaseAllows(target.Core, target.App); err != nil {
		return 0, err
	}
	var curr *KThread
	for _, t := range mod.cores[target.Core] {
		if t.Active {
			curr = t
			break
		}
	}
	if curr == target {
		return 0, nil // already active: nothing to do
	}
	if curr != nil {
		curr.Active = false
		curr.parked = true
	}
	target.Active = true
	target.parked = false
	mod.switches++
	mod.checkBindingRule(target.Core)
	return mod.cost.AppSwitch, nil
}

// Wakeup makes the given kernel thread active (skyloft_wakeup), used when a
// core has no active thread at all — e.g. reassigning an idle core to a
// different application. It fails if another thread is active on the core.
func (mod *Module) Wakeup(targetTID int) (simtime.Duration, error) {
	target, ok := mod.byTID[targetTID]
	if !ok {
		return 0, fmt.Errorf("kmod: no kernel thread with tid %d", targetTID)
	}
	if target.Active {
		return 0, nil
	}
	if err := mod.leaseAllows(target.Core, target.App); err != nil {
		return 0, err
	}
	for _, t := range mod.cores[target.Core] {
		if t.Active {
			return 0, fmt.Errorf("kmod: core %d already has active kthread tid %d: %w",
				target.Core, t.TID, ErrDoubleBind)
		}
	}
	target.Active = true
	target.parked = false
	mod.checkBindingRule(target.Core)
	return mod.cost.KthreadSwitchWake, nil
}

// Exit terminates a kernel thread: an active thread is first rebound off
// its isolated core (§3.3 application termination); parked threads get a
// termination signal. The thread disappears from the core's binding set.
func (mod *Module) Exit(tid int) error {
	t, ok := mod.byTID[tid]
	if !ok {
		return fmt.Errorf("kmod: no kernel thread with tid %d", tid)
	}
	list := mod.cores[t.Core]
	for i, other := range list {
		if other == t {
			mod.cores[t.Core] = append(list[:i:i], list[i+1:]...)
			break
		}
	}
	delete(mod.byTID, tid)
	return nil
}

// ActiveOn reports the active kernel thread on core, or nil.
func (mod *Module) ActiveOn(core int) *KThread {
	for _, t := range mod.cores[core] {
		if t.Active {
			return t
		}
	}
	return nil
}

// ThreadsOn reports all kernel threads bound to core.
func (mod *Module) ThreadsOn(core int) []*KThread {
	return append([]*KThread(nil), mod.cores[core]...)
}

// Lookup finds a kernel thread by TID.
func (mod *Module) Lookup(tid int) *KThread { return mod.byTID[tid] }

// FindFor reports app's kernel thread on core, or nil.
func (mod *Module) FindFor(app, core int) *KThread {
	for _, t := range mod.cores[core] {
		if t.App == app {
			return t
		}
	}
	return nil
}

// checkBindingRule panics if two active kernel threads share a core — the
// invariant the whole design rests on, so violating it is a simulator bug.
func (mod *Module) checkBindingRule(core int) {
	n := 0
	for _, t := range mod.cores[core] {
		if t.Active {
			n++
		}
	}
	if n > 1 {
		panic(fmt.Sprintf("kmod: Single Binding Rule violated on core %d (%d active)", core, n))
	}
}

// TimerEnable delegates the core's LAPIC timer to user space via the §3.2
// recipe (skyloft_timer_enable + skyloft_timer_set_hz). The returned
// duration is the ioctl cost; the caller charges it to the calling core.
func (mod *Module) TimerEnable(r *uintrsim.Receiver, s *uintrsim.Sender, hz int64) (*uintrsim.TimerDelegation, simtime.Duration) {
	d := uintrsim.DelegateTimer(r, s, hz)
	return d, mod.cost.Syscall
}

// TimerSetHz reconfigures a delegated timer's frequency and returns the
// ioctl cost.
func (mod *Module) TimerSetHz(d *uintrsim.TimerDelegation, hz int64) simtime.Duration {
	d.SetHz(hz)
	return mod.cost.Syscall
}
