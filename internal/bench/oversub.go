package bench

import (
	"fmt"

	"skyloft/internal/core"
	"skyloft/internal/faults"
	"skyloft/internal/hw"
	"skyloft/internal/ksched"
	"skyloft/internal/lease"
	"skyloft/internal/obs"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/policy/shinjuku"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// Oversubscription survival (DESIGN.md §15): the oversub-multiruntime
// preset drives the cross-runtime core lending/reclaim lease protocol under
// a fault plan that attacks the cooperative reclaim path, and the gate
// proves the robustness claims — replay is bit-identical, the cross-app
// invariants hold throughout, forced revocation demonstrably engaged (the
// faults really broke cooperation), and the measured reclaim p99 stays
// inside the protocol's configured bound.

// OversubDuration is the default virtual length of one oversubscription
// run: the preset fault windows ([0.5ms, 3ms)) get a clean lead-in and a
// clean recovery tail, matching the chaos tier's convention.
const OversubDuration = 4 * simtime.Millisecond

// OversubResult summarises one oversubscription run.
type OversubResult struct {
	Preset string `json:"preset"`
	Seed   uint64 `json:"seed"`

	TraceHash  uint64 `json:"trace_hash"`
	Events     uint64 `json:"events"`
	Dispatched uint64 `json:"dispatched"`

	Injected faults.Counters `json:"injected"`

	Checks        uint64   `json:"invariant_checks"`
	Violations    uint64   `json:"invariant_violations"`
	ViolationMsgs []string `json:"violation_msgs,omitempty"`

	// Lease state-machine counters (internal/lease.Manager).
	Grants             uint64 `json:"grants"`
	Reclaims           uint64 `json:"reclaims"`
	VoluntaryReturns   uint64 `json:"voluntary_returns"`
	CooperativeReturns uint64 `json:"cooperative_returns"`
	ForcedRevocations  uint64 `json:"forced_revocations"`
	RevocationRetries  uint64 `json:"revocation_retries"`
	Evictions          uint64 `json:"evictions"`
	DeadlineMisses     uint64 `json:"deadline_misses"`
	LeaseEvents        uint64 `json:"lease_events"`

	// Reclaim latency (request -> return) against the configured bound.
	ReclaimP50Us   float64 `json:"reclaim_p50_us"`
	ReclaimP99Us   float64 `json:"reclaim_p99_us"`
	ReclaimMaxUs   float64 `json:"reclaim_max_us"`
	ReclaimBoundUs float64 `json:"reclaim_bound_us"`

	// TenantCores is the borrower tenant's CPU over the run, in cores: the
	// sum of its threads' CPU time divided by the run length. Its home CPUs
	// cap a static split at 2.0; anything above is lent capacity.
	TenantCores float64 `json:"tenant_cores"`

	Findings []doctor.Finding `json:"findings"`
}

// OversubPresetNames lists the oversubscription scenarios in gate order.
func OversubPresetNames() []string {
	return []string{"oversub-multiruntime"}
}

// oversubPlan builds the fault plan that attacks the preset's cooperative
// reclaim path, in the chaos tier's [0.5ms, 3ms) window convention.
func oversubPlan(name string, seed uint64) (*faults.Plan, bool) {
	const (
		onset = simtime.Time(500 * simtime.Microsecond)
		until = simtime.Time(3 * simtime.Millisecond)
	)
	switch name {
	case "oversub-multiruntime":
		// The cross-runtime reclaim notification is a vacate IPI to the lent
		// cores: drop most of them (and the lent cores' other IPI traffic)
		// so the borrower kernel never hears the cooperative request and
		// ForceOffline has to yank the cores back.
		return &faults.Plan{Name: name, Seed: seed, Rules: []faults.Rule{
			{Kind: faults.IPIDrop, Core: oversubLentHW[0], From: onset, Until: until, Rate: 0.85},
			{Kind: faults.IPIDrop, Core: oversubLentHW[1], From: onset, Until: until, Rate: 0.85},
		}}, true
	}
	return nil, false
}

// RunOversub executes the named oversubscription preset at seed.
// Duration <= 0 uses OversubDuration.
func RunOversub(name string, seed uint64, dur simtime.Duration) (*OversubResult, error) {
	if dur <= 0 {
		dur = OversubDuration
	}
	plan, ok := oversubPlan(name, seed)
	if !ok {
		return nil, fmt.Errorf("bench: unknown oversubscription preset %q (have %v)",
			name, OversubPresetNames())
	}
	return oversubMultiRuntime(plan, seed, dur)
}

// oversubCheckerBudget is the engine checker's work-conservation budget.
// The plan drops 85% of the IPIs to the lent cores, so recovery can lean on
// the watchdog (caught within ~1.5 budgets of onset) rather than the first
// retry; the budget is sized so only a genuine wedge — not a recovered
// drop — trips work conservation, while the lease invariants (the point of
// this tier) stay audited at every event.
const oversubCheckerBudget = simtime.Millisecond

// oversubMultiRuntime's core plumbing: engine CPUs {0..4} (dispatcher +
// 4 workers on hw cores 1..4); worker indexes 2 and 3 (hw cores 3 and 4)
// are lendable to the ksched tenant, which also owns home CPUs 5 and 6.
var (
	oversubLentIdx = []int{2, 3}
	oversubLentHW  = []int{3, 4}
	oversubHomeHW  = []int{5, 6}
)

// oversubBroker owns the cross-runtime lease state machine:
// it polls both runtimes' pressure on a fixed interval, lends idle
// engine workers to the ksched tenant (LendWorker + Online), and reclaims
// them through the manager's grace-deadline escalation — a droppable vacate
// IPI cooperatively, ForceOffline when the borrower never hears it.
//
//simlint:owner sim
type oversubBroker struct {
	m      *hw.Machine
	e      *core.Engine
	k      *ksched.Kernel
	mgr    *lease.Manager
	tenant *core.App
	lender int // engine LC app (the cores' owner)
}

// brokerPollInterval paces the broker's pressure policy. brokerEvictRetry
// paces the ForceOffline loop over the borrower kernel's non-quiescent
// windows, all bounded by kernel costs — well inside EvictSlack.
const (
	brokerPollInterval = 20 * simtime.Microsecond
	brokerEvictRetry   = simtime.Microsecond
)

func (b *oversubBroker) hwOf(core int) int { return oversubLentHW[core-oversubLentIdx[0]] }
func (b *oversubBroker) kidxOf(core int) int {
	return len(oversubHomeHW) + core - oversubLentIdx[0]
}
func (b *oversubBroker) idxOfKidx(kidx int) int {
	return oversubLentIdx[0] + kidx - len(oversubHomeHW)
}

// ReclaimNotify delivers one cooperative vacate request as a plain kernel
// IPI — the droppable substrate; the manager owns every retry (lease.Client).
func (b *oversubBroker) ReclaimNotify(core, attempt int) {
	b.m.SendIPI(0, b.hwOf(core), ksched.VacateVector, b.m.Cost.KernelIPIDeliver, nil)
}

// ForceEvict yanks the lent core out of the borrower kernel's scheduling
// set, retrying over its bounded non-quiescent windows (lease.Client). The
// vacate hook completes the return.
func (b *oversubBroker) ForceEvict(core int) {
	kidx := b.kidxOf(core)
	var try func()
	try = func() {
		if b.k.ForceOffline(kidx) {
			return
		}
		b.m.Clock.After(brokerEvictRetry, try)
	}
	try()
}

// vacated is the borrower kernel's vacate hook: the core's work is re-homed
// and its interrupt context fully unwound, so the engine can switch the
// kernel thread back and the lease completes.
func (b *oversubBroker) vacated(kidx int) {
	i := b.idxOfKidx(kidx)
	b.e.ReclaimWorker(i)
	b.mgr.Returned(i)
}

// step is one pressure-policy decision: lend an idle engine worker when the
// engine has nothing queued and the tenant kernel does, reclaim one when
// the engine's own queue backs up. One transition per step bounds thrash.
func (b *oversubBroker) step() {
	if b.e.RunqDepth() == 0 && b.k.RunqDepth() > 0 {
		for _, i := range oversubLentIdx {
			if b.mgr.StateOf(i) != lease.Idle {
				continue
			}
			hwID := b.hwOf(i)
			kidx := b.kidxOf(i)
			d, ok := b.e.LendWorker(i, b.tenant.ID, b.tenant.KThreadTID(hwID), func(irq hw.IRQ) {
				b.k.ForwardIRQ(kidx, irq)
			})
			if !ok {
				continue
			}
			if err := b.mgr.Grant(i, b.lender, b.tenant.ID); err != nil {
				panic("bench: " + err.Error())
			}
			// The borrower joins the scheduling set once the kernel-thread
			// switch has been charged to the core.
			b.m.Clock.After(d, func() { b.k.Online(kidx) })
			return
		}
		return
	}
	if b.e.RunqDepth() >= 2 {
		for _, i := range oversubLentIdx {
			if b.mgr.StateOf(i) == lease.Granted {
				b.mgr.RequestReclaim(i)
				return
			}
		}
	}
}

// start arms the self-rearming policy loop.
func (b *oversubBroker) start() {
	var poll func()
	poll = func() {
		b.step()
		b.m.Clock.After(brokerPollInterval, poll)
	}
	b.m.Clock.After(brokerPollInterval, poll)
}

// oversubMultiRuntime is the preset: two runtimes — the Skyloft engine and a
// simulated-Linux ksched tenant — share the machine. The broker lends the
// engine's idle workers to the tenant kernel and reclaims them under the
// lease protocol while the fault plan drops the vacate IPIs, forcing the
// revocation path through ForceOffline. Each runtime gets its own invariant
// checker (thread IDs collide across runtimes, and cross-runtime idleness
// is not a work-conservation violation); the ksched checker's budget covers
// its tick-granular (HZ=1000) recovery of dropped kick IPIs.
func oversubMultiRuntime(plan *faults.Plan, seed uint64, dur simtime.Duration) (*OversubResult, error) {
	m := newMachine()
	tr := trace.New(1 << 16)
	e := core.New(core.Config{
		Machine: m, Trace: tr, Seed: seed,
		CPUs:      cpuList(5),
		Mode:      core.Centralized,
		Central:   shinjuku.New(25 * simtime.Microsecond),
		Costs:     core.SkyloftCosts(m.Cost),
		TimerMode: core.TimerNone,
		Hardening: &core.HardeningConfig{},
	})
	defer e.Shutdown()
	k := ksched.New(ksched.Config{
		Machine: m, CPUs: oversubHomeHW, LentCPUs: oversubLentHW,
		Params: ksched.TunedParams(), Class: ksched.ClassCFS,
		Seed: seed, IdleSteal: true,
	})
	defer k.Shutdown()

	lc := e.NewApp("lc")
	tenant := e.NewApp("linux-tenant") // parked kthreads the broker lends to

	broker := &oversubBroker{m: m, e: e, k: k, tenant: tenant, lender: lc.ID}
	broker.mgr = lease.NewManager(lease.Config{}, m.Clock, broker, tr)
	broker.mgr.SetBindingAudit(func(core int) (int, bool) {
		if k.Offline(broker.kidxOf(core)) {
			return 0, false // mid-handoff: kmod ownership is in transition
		}
		return tenant.ID, true
	})
	k.SetVacateHook(broker.vacated)

	in, err := faults.NewInjector(plan, m)
	if err != nil {
		return nil, err
	}
	in.Attach(tr)
	engChecker := faults.NewChecker(e, oversubCheckerBudget)
	engChecker.AttachLease(broker.mgr)
	kChecker := faults.NewChecker(k, 3*simtime.Millisecond)
	m.Clock.SetObserver(func() {
		engChecker.Check()
		kChecker.Check()
	})

	// One registry per runtime: engine and kernel each register the shared
	// machine's hw.* counters, which a single registry would reject as
	// duplicates.
	reg := &obs.Registry{}
	e.RegisterMetrics(reg)
	broker.mgr.RegisterMetrics(reg)
	in.RegisterMetrics(reg)
	kreg := &obs.Registry{}
	k.RegisterMetrics(kreg)

	for i := 0; i < 8; i++ {
		lc.Start("lc-w", func(env sched.Env) {
			for {
				env.Run(simtime.Duration(2+env.Rand().Intn(9)) * simtime.Microsecond)
				env.Sleep(simtime.Duration(10+env.Rand().Intn(60)) * simtime.Microsecond)
			}
		})
	}
	var spinners []*sched.Thread
	for i := 0; i < 5; i++ {
		// CPU-bound tenant threads: constant pressure on the borrower
		// kernel, so every grant gets used and every reclaim interrupts
		// real work.
		spinners = append(spinners, k.Start("tenant-spin", func(env sched.Env) {
			for {
				env.Run(100 * simtime.Microsecond)
			}
		}))
	}
	broker.start()
	e.Run(simtime.Time(dur))
	var tenantCPU simtime.Duration
	for _, th := range spinners {
		tenantCPU += th.CPUTime
	}

	mgr, h := broker.mgr, broker.mgr.ReclaimHist()
	res := &OversubResult{
		Preset: plan.Name, Seed: seed,
		TraceHash: tr.Hash(), Events: tr.Total(), Dispatched: m.Clock.Dispatched(),
		Injected:    in.Counters(),
		Checks:      engChecker.Checks() + kChecker.Checks(),
		Violations:  engChecker.Count() + kChecker.Count(),
		LeaseEvents: tr.Counts().LeaseEvents,

		Grants:             mgr.Grants(),
		Reclaims:           mgr.Reclaims(),
		VoluntaryReturns:   mgr.VoluntaryReturns(),
		CooperativeReturns: mgr.CooperativeReturns(),
		ForcedRevocations:  mgr.ForcedRevocations(),
		RevocationRetries:  mgr.RevocationRetries(),
		Evictions:          mgr.Evictions(),
		DeadlineMisses:     mgr.DeadlineMisses(),
		ReclaimP50Us:       h.P50().Micros(),
		ReclaimP99Us:       h.P99().Micros(),
		ReclaimMaxUs:       h.Max().Micros(),
		ReclaimBoundUs:     mgr.Config().ReclaimBound().Micros(),
		TenantCores:        float64(tenantCPU) / float64(dur),
	}
	res.ViolationMsgs = append(res.ViolationMsgs, engChecker.Violations()...)
	res.ViolationMsgs = append(res.ViolationMsgs, kChecker.Violations()...)
	diag := doctor.Analyze(tr.Events(), nil, doctor.Config{Cores: e.Workers()})
	res.Findings = append([]doctor.Finding{}, diag.Findings...)
	return res, nil
}

// OversubGate runs each named preset (nil = all) twice and collects
// failures: non-deterministic replay (trace hash, event total or dispatched
// count differ), any invariant violation, a plan that never injected, a run where forced revocation never engaged (the faults
// did not actually break cooperation), or a reclaim p99 past the protocol's
// bound. An empty failure list is a green gate.
func OversubGate(seed uint64, dur simtime.Duration, names []string) ([]*OversubResult, []string) {
	if names == nil {
		names = OversubPresetNames()
	}
	var results []*OversubResult
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	for _, name := range names {
		r1, err := RunOversub(name, seed, dur)
		if err != nil {
			fail("%s: %v", name, err)
			continue
		}
		r2, err := RunOversub(name, seed, dur)
		if err != nil {
			fail("%s: replay: %v", name, err)
			continue
		}
		results = append(results, r1)
		if r1.TraceHash != r2.TraceHash || r1.Events != r2.Events || r1.Dispatched != r2.Dispatched {
			fail("%s: replay diverged: %016x/%d events/%d dispatched vs %016x/%d/%d",
				name, r1.TraceHash, r1.Events, r1.Dispatched,
				r2.TraceHash, r2.Events, r2.Dispatched)
		}
		if r1.Violations > 0 {
			msg := fmt.Sprintf("%s: %d invariant violations", name, r1.Violations)
			if len(r1.ViolationMsgs) > 0 {
				msg += ": " + r1.ViolationMsgs[0]
			}
			failures = append(failures, msg)
		}
		if r1.Injected.Total() == 0 {
			fail("%s: plan injected nothing", name)
		}
		if r1.ForcedRevocations == 0 {
			fail("%s: forced revocation never engaged (every reclaim ended cooperatively)", name)
		}
		if r1.Grants == 0 {
			fail("%s: no leases were ever granted", name)
		}
		if r1.ReclaimP99Us > r1.ReclaimBoundUs {
			fail("%s: reclaim p99 %.1fµs past the %.1fµs bound (max %.1fµs)",
				name, r1.ReclaimP99Us, r1.ReclaimBoundUs, r1.ReclaimMaxUs)
		}
	}
	return results, failures
}
