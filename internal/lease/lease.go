// Package lease implements an explicit core lending/reclaim protocol
// between applications sharing a machine under kmod's Single Binding Rule
// (DESIGN.md §15). A lender grants an idle core to a borrower as a
// revocable lease; reclaim follows a grace-deadline state machine:
//
//	Idle ── Grant ──> Granted ── RequestReclaim ──> Reclaiming
//	  ^                  │                              │
//	  │            (voluntary return)            grace deadline
//	  │                  │                              v
//	  └── Returned ──────┴──────────────────────── Revoking
//	                                  (notify × RetryMax, then ForceEvict)
//
// The cooperative path — a reclaim notification the borrower answers by
// yielding — rides the same delivery substrate as every other IPI, so an
// active fault plan can drop or suppress it. The protocol is built so the
// reclaim latency stays bounded anyway: when the grace deadline expires
// the manager escalates through RetryMax re-notifications with doubling
// backoff and finally calls the client's ForceEvict, which yanks the
// borrower through the kernel module and cannot be ignored. The resulting
// worst-case bound is Config.ReclaimBound; the invariant auditor treats a
// reclaim outliving it as a violation.
package lease

import (
	"fmt"

	"skyloft/internal/det"
	"skyloft/internal/obs"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// State is one core lease's position in the grant/reclaim state machine.
type State uint8

const (
	// Idle: the core is not lent; the lender owns it outright.
	Idle State = iota
	// Granted: the borrower holds the core; the lender may reclaim.
	Granted
	// Reclaiming: the lender asked for the core back; the cooperative
	// grace window is running.
	Reclaiming
	// Revoking: the grace deadline expired; forced revocation is
	// escalating toward ForceEvict.
	Revoking
)

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Granted:
		return "granted"
	case Reclaiming:
		return "reclaiming"
	case Revoking:
		return "revoking"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Config bounds the reclaim path.
type Config struct {
	// Grace is the cooperative window: how long a borrower gets to yield
	// after the first reclaim notification before forced revocation
	// engages. Default 50µs.
	Grace simtime.Duration
	// RetryTimeout is the first forced re-notification backoff; each
	// subsequent retry doubles it. Default 15µs (matching the hardening
	// layer's IPI retry).
	RetryTimeout simtime.Duration
	// RetryMax is how many forced re-notifications are sent before the
	// manager stops asking and calls ForceEvict. Default 3.
	RetryMax int
	// EvictSlack bounds how long ForceEvict may take to land: the evict
	// loop retries over the borrower's non-preemptible windows (in-IRQ,
	// in-runtime, mid-exec), all of which are bounded by scheduler costs,
	// not by borrower behavior. Default 40µs.
	EvictSlack simtime.Duration
}

func (c Config) withDefaults() Config {
	if c.Grace == 0 {
		c.Grace = 50 * simtime.Microsecond
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 15 * simtime.Microsecond
	}
	if c.RetryMax == 0 {
		c.RetryMax = 3
	}
	if c.EvictSlack == 0 {
		c.EvictSlack = 40 * simtime.Microsecond
	}
	return c
}

// ReclaimBound is the worst-case reclaim latency the state machine
// guarantees: the full grace window, plus every forced re-notification
// backoff (RetryTimeout doubling RetryMax times), plus the eviction slack.
// No borrower behavior — stalling, dropping IPIs, ignoring requests —
// can stretch a reclaim past it, because the final step does not need the
// borrower's cooperation.
func (c Config) ReclaimBound() simtime.Duration {
	c = c.withDefaults()
	bound := c.Grace + c.EvictSlack
	t := c.RetryTimeout
	for i := 0; i < c.RetryMax; i++ {
		bound += t
		t *= 2
	}
	return bound
}

// Client is the runtime-side half of the protocol: the scheduler that owns
// the lent cores implements delivery and eviction.
type Client interface {
	// ReclaimNotify delivers a reclaim notification for core. Attempt 0 is
	// the cooperative request inside the grace window; attempts >= 1 are
	// the forced-revocation resends. Delivery rides the normal IPI/UINTR
	// substrate and MAY be lost under a fault plan — the manager owns the
	// escalation, so implementations must not arm their own retries.
	ReclaimNotify(core, attempt int)
	// ForceEvict yanks the borrower off core through the kernel module.
	// It must eventually complete regardless of borrower behavior and end
	// with the owner calling Returned(core).
	ForceEvict(core int)
}

// Lease is one core's lending record.
type Lease struct {
	Core      int // client-scoped core index
	Lender    int // lending application
	Borrower  int // borrowing application
	State     State
	GrantedAt simtime.Time
	ReclaimAt simtime.Time // when RequestReclaim fired (valid past Granted)

	// seq invalidates in-flight deadline/escalation callbacks across
	// transitions: each transition bumps it and callbacks compare.
	seq uint64
	// overdueReported suppresses duplicate deadline-overdue audit
	// violations for one reclaim.
	overdueReported bool
}

// Manager runs the lease state machine for one lender runtime. It is owned
// sim state: every method is called from the dispatcher or clock
// callbacks.
//
//simlint:owner sim
type Manager struct {
	cfg    Config
	clock  simtime.EventCore
	client Client
	ring   *trace.Ring // optional: lease transitions into the trace

	leases map[int]*Lease

	grants             uint64
	voluntaryReturns   uint64 // Granted -> Idle with no reclaim pending
	reclaims           uint64 // RequestReclaim accepted
	cooperativeReturns uint64 // returned inside the grace window
	forcedRevocations  uint64 // grace deadline expired
	revocationRetries  uint64 // forced re-notifications sent
	evictions          uint64 // ForceEvict invoked
	deadlineMisses     uint64 // reclaim latency exceeded ReclaimBound

	reclaimHist *stats.Hist // reclaim request -> return latency

	// bindingAudit lets the invariant auditor cross-check kmod ownership:
	// it reports the application whose kernel thread is active on a
	// leased core (ok=false when none is).
	bindingAudit func(core int) (app int, ok bool)
	// pendingViolations carries transition-time violations (e.g. a
	// deadline miss observed at Returned) to the next audit sweep.
	pendingViolations []string

	// OnTransition, if set, observes every state change (after the
	// transition is applied). The core engine uses it to keep kmod's
	// lease marks in step with the state machine.
	OnTransition func(l Lease)
}

// NewManager creates a manager scheduling deadline events on clock and
// recording transitions into ring (nil: no trace).
func NewManager(cfg Config, clock simtime.EventCore, client Client, ring *trace.Ring) *Manager {
	return &Manager{
		cfg:         cfg.withDefaults(),
		clock:       clock,
		client:      client,
		ring:        ring,
		leases:      make(map[int]*Lease),
		reclaimHist: stats.NewHist(),
	}
}

// Config reports the manager's effective (default-filled) configuration.
func (m *Manager) Config() Config { return m.cfg }

// SetBindingAudit installs the kmod ownership probe used by AuditLeases.
func (m *Manager) SetBindingAudit(fn func(core int) (app int, ok bool)) {
	m.bindingAudit = fn
}

// StateOf reports core's lease state (Idle when never lent).
func (m *Manager) StateOf(core int) State {
	if l, ok := m.leases[core]; ok {
		return l.State
	}
	return Idle
}

// Snapshot reports core's lease record (zero-value, State Idle, when the
// core has never been lent).
func (m *Manager) Snapshot(core int) Lease {
	if l, ok := m.leases[core]; ok {
		return *l
	}
	return Lease{Core: core, State: Idle}
}

func (m *Manager) emit(kind trace.Kind, l *Lease, arg int64) {
	if m.ring == nil {
		return
	}
	m.ring.Record(trace.Event{
		At: m.clock.Now(), Kind: kind, CPU: l.Core, App: l.Borrower, Arg: arg,
	})
}

func (m *Manager) notify(l Lease) {
	if m.OnTransition != nil {
		m.OnTransition(l)
	}
}

// Grant lends core from lender to borrower. Granting a core that is
// already lent is a protocol violation and returns an error (the
// no-double-grant invariant); the caller treats it as a bug.
func (m *Manager) Grant(core, lender, borrower int) error {
	l, ok := m.leases[core]
	if !ok {
		l = &Lease{Core: core}
		m.leases[core] = l
	}
	if l.State != Idle {
		return fmt.Errorf("lease: double grant of core %d (state %v, borrower %d) to borrower %d",
			core, l.State, l.Borrower, borrower)
	}
	l.Lender, l.Borrower = lender, borrower
	l.State = Granted
	l.GrantedAt = m.clock.Now()
	l.overdueReported = false
	l.seq++
	m.grants++
	m.emit(trace.LeaseGrant, l, int64(lender))
	m.notify(*l)
	return nil
}

// RequestReclaim starts taking core back: the borrower gets one
// cooperative notification and a grace window; if the core has not come
// back when the window closes, forced revocation engages. Returns false
// when core is not currently in the Granted state (nothing to do — the
// call is idempotent while a reclaim is already in flight).
func (m *Manager) RequestReclaim(core int) bool {
	l, ok := m.leases[core]
	if !ok || l.State != Granted {
		return false
	}
	l.State = Reclaiming
	l.ReclaimAt = m.clock.Now()
	l.seq++
	seq := l.seq
	m.reclaims++
	m.emit(trace.LeaseReclaim, l, 0)
	m.notify(*l)
	m.client.ReclaimNotify(core, 0)
	m.clock.After(m.cfg.Grace, func() {
		m.graceExpired(l, seq)
	})
	return true
}

// graceExpired fires when the cooperative window closes. If the lease is
// still in Reclaiming under the same transition sequence, the borrower has
// not yielded: forced revocation engages.
func (m *Manager) graceExpired(l *Lease, seq uint64) {
	if l.seq != seq || l.State != Reclaiming {
		return // returned (or re-granted) in the meantime
	}
	l.State = Revoking
	l.seq++
	m.forcedRevocations++
	m.emit(trace.LeaseRevoke, l, 0)
	m.notify(*l)
	m.escalate(l, l.seq, 1, m.cfg.RetryTimeout)
}

// escalate re-notifies the borrower with doubling backoff; after RetryMax
// attempts it stops asking and evicts.
func (m *Manager) escalate(l *Lease, seq uint64, attempt int, timeout simtime.Duration) {
	if l.seq != seq || l.State != Revoking {
		return
	}
	if attempt > m.cfg.RetryMax {
		m.evictions++
		m.client.ForceEvict(l.Core)
		return
	}
	m.revocationRetries++
	m.client.ReclaimNotify(l.Core, attempt)
	m.clock.After(timeout, func() {
		m.escalate(l, seq, attempt+1, timeout*2)
	})
}

// Returned records that core is back with the lender — a voluntary yield,
// a cooperative reclaim, or the tail of a forced revocation. Safe to call
// when no lease is active (no-op), so runtimes may report every
// core-became-idle transition without tracking lease state themselves.
func (m *Manager) Returned(core int) {
	l, ok := m.leases[core]
	if !ok || l.State == Idle {
		return
	}
	var latency simtime.Duration
	switch l.State {
	case Granted:
		m.voluntaryReturns++
	case Reclaiming:
		m.cooperativeReturns++
		latency = m.clock.Now() - l.ReclaimAt
	case Revoking:
		latency = m.clock.Now() - l.ReclaimAt
	}
	if l.State != Granted {
		m.reclaimHist.Record(latency)
		if latency > m.cfg.ReclaimBound() {
			m.deadlineMisses++
			m.pendingViolations = append(m.pendingViolations, fmt.Sprintf(
				"lease: reclaim of core %d from app %d took %v, past the %v bound",
				core, l.Borrower, latency, m.cfg.ReclaimBound()))
		}
	}
	l.State = Idle
	l.seq++
	m.emit(trace.LeaseReturn, l, int64(latency))
	m.notify(*l)
}

// Grants reports leases granted.
func (m *Manager) Grants() uint64 { return m.grants }

// Reclaims reports reclaim requests accepted.
func (m *Manager) Reclaims() uint64 { return m.reclaims }

// VoluntaryReturns reports cores returned with no reclaim pending.
func (m *Manager) VoluntaryReturns() uint64 { return m.voluntaryReturns }

// CooperativeReturns reports reclaims satisfied inside the grace window.
func (m *Manager) CooperativeReturns() uint64 { return m.cooperativeReturns }

// ForcedRevocations reports reclaims that outlived the grace window.
func (m *Manager) ForcedRevocations() uint64 { return m.forcedRevocations }

// RevocationRetries reports forced re-notifications sent.
func (m *Manager) RevocationRetries() uint64 { return m.revocationRetries }

// Evictions reports ForceEvict invocations (revocations the borrower
// ignored to the end).
func (m *Manager) Evictions() uint64 { return m.evictions }

// DeadlineMisses reports reclaims whose latency exceeded ReclaimBound —
// always zero unless the bound itself is broken (an invariant violation).
func (m *Manager) DeadlineMisses() uint64 { return m.deadlineMisses }

// ReclaimHist exposes the reclaim-latency histogram (request -> return).
func (m *Manager) ReclaimHist() *stats.Hist { return m.reclaimHist }

// RegisterMetrics publishes the lease counters into a metrics registry,
// which also carries them onto the live-bus snapshot.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("lease.grants", func() uint64 { return m.grants })
	r.CounterFunc("lease.reclaims", func() uint64 { return m.reclaims })
	r.CounterFunc("lease.voluntary_returns", func() uint64 { return m.voluntaryReturns })
	r.CounterFunc("lease.cooperative_returns", func() uint64 { return m.cooperativeReturns })
	r.CounterFunc("lease.forced_revocations", func() uint64 { return m.forcedRevocations })
	r.CounterFunc("lease.revocation_retries", func() uint64 { return m.revocationRetries })
	r.CounterFunc("lease.evictions", func() uint64 { return m.evictions })
	r.CounterFunc("lease.deadline_misses", func() uint64 { return m.deadlineMisses })
	r.AttachHistogram("lease.reclaim_latency", m.reclaimHist)
}

// AuditLeases implements faults.LeaseAuditor: the invariant checker calls
// it after every dispatched event. It reports, through violate:
//
//   - reclaim-deadline-respected: a lease stuck in Reclaiming/Revoking past
//     ReclaimBound, or a completed reclaim whose latency exceeded it;
//   - Single-Binding/no-double-grant: a granted core whose active kernel
//     thread (per the binding audit) belongs to neither borrower nor
//     lender — the lease and the kmod binding disagree about ownership.
func (m *Manager) AuditLeases(violate func(format string, args ...any)) {
	for _, msg := range m.pendingViolations {
		violate("%s", msg)
	}
	m.pendingViolations = m.pendingViolations[:0]
	now := m.clock.Now()
	bound := m.cfg.ReclaimBound()
	for _, core := range det.SortedKeys(m.leases) {
		l := m.leases[core]
		switch l.State {
		case Reclaiming, Revoking:
			if now-l.ReclaimAt > bound && !l.overdueReported {
				l.overdueReported = true
				m.deadlineMisses++
				violate("lease: reclaim of core %d from app %d still %v at +%v, past the %v bound",
					core, l.Borrower, l.State, now-l.ReclaimAt, bound)
			}
		}
		if l.State == Granted && m.bindingAudit != nil {
			if app, ok := m.bindingAudit(core); ok && app != l.Borrower && app != l.Lender {
				violate("lease: core %d granted to app %d but app %d's kthread is active",
					core, l.Borrower, app)
			}
		}
	}
}
