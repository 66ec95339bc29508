// Package cycles defines the simulation's cost model. Every privileged or
// scheduling-related operation in the simulated machine charges virtual time
// according to the constants here, which are taken directly from the paper's
// microbenchmarks (Tables 6 and 7, §5.4) measured on a 2.0 GHz Sapphire
// Rapids Xeon Gold 5418Y. Keeping all costs in one struct makes ablations
// (e.g. "what if user IPIs cost as much as kernel IPIs?") one-line changes.
package cycles

import "skyloft/internal/simtime"

// CPUGHz is the simulated clock rate; the evaluation server runs at 2.0 GHz,
// so one cycle is half a nanosecond.
const CPUGHz = 2.0

// FromCycles converts a cycle count at CPUGHz into virtual nanoseconds.
func FromCycles(c int64) simtime.Duration {
	return simtime.Duration(float64(c) / CPUGHz)
}

// Model is the full cost model. All fields are virtual-time durations.
type Model struct {
	// ---- Notification mechanisms (paper Table 6, converted from cycles).

	// Linux signal: send / receive (handler entry+exit incl. context
	// save/restore through the kernel) / cross-core delivery latency.
	SignalSend    simtime.Duration
	SignalReceive simtime.Duration
	SignalDeliver simtime.Duration

	// Kernel IPI (smp_call_function-style), as used by ghOSt preemption.
	KernelIPISend    simtime.Duration
	KernelIPIReceive simtime.Duration
	KernelIPIDeliver simtime.Duration

	// Intel UINTR user IPI (SENDUIPI → user handler), same socket.
	UserIPISend    simtime.Duration
	UserIPIReceive simtime.Duration
	UserIPIDeliver simtime.Duration

	// User IPI crossing NUMA nodes.
	UserIPISendXNUMA    simtime.Duration
	UserIPIReceiveXNUMA simtime.Duration
	UserIPIDeliverXNUMA simtime.Duration

	// setitimer-based (signal) timer receive cost.
	SetitimerReceive simtime.Duration

	// User-space LAPIC timer interrupt receive cost (§3.2 delegation).
	UserTimerReceive simtime.Duration

	// Extra SENDUIPI with UPID.SN=1 executed inside the handler to re-arm
	// PIR for the next hardware timer interrupt (§5.4: ~123 cycles).
	SelfUIPIRearm simtime.Duration

	// ---- Threading operations (paper Table 7, ns).

	// Skyloft user-level thread operations.
	UthreadYield   simtime.Duration
	UthreadSpawn   simtime.Duration
	UthreadMutex   simtime.Duration
	UthreadCondvar simtime.Duration

	// pthread (kernel thread) equivalents, for the Linux baselines.
	PthreadYield   simtime.Duration
	PthreadSpawn   simtime.Duration
	PthreadMutex   simtime.Duration
	PthreadCondvar simtime.Duration

	// ---- Context switches (§5.4 text).

	// Skyloft inter-application switch: park current kthread + wake the
	// target app's kthread through the kernel module (1,905 ns).
	AppSwitch simtime.Duration

	// Linux kernel-thread switch when both are runnable (1,124 ns) and
	// when one must be woken first (2,471 ns).
	KthreadSwitch     simtime.Duration
	KthreadSwitchWake simtime.Duration

	// ---- Kernel path costs (not in the tables; standard magnitudes).

	// One syscall / ioctl round trip (mode switch + dispatch).
	Syscall simtime.Duration

	// Kernel timer-tick handler (accounting + need_resched check).
	KernelTick simtime.Duration

	// User-space scheduling-loop costs: one pass over policy code to pick
	// the next task, and a user-level context switch (register save +
	// restore + stack swap; the "fast path" of §4.1).
	SchedPick     simtime.Duration
	UthreadSwitch simtime.Duration

	// Cost for the dispatcher to poll one queue entry / worker slot in a
	// centralized policy (Shinjuku-style).
	DispatchPoll simtime.Duration

	// ghOSt agent transaction commit: shared-memory message + syscall to
	// commit a scheduling decision (§2.3/§5.2 — dominated by kernel
	// round-trips; the ghOSt paper reports multi-µs decision latencies).
	GhostTxnCommit simtime.Duration
	// ghOSt kernel→agent message delivery (status word update + wakeup).
	GhostMessage simtime.Duration

	// Network datapath costs (per packet, §3.5): NIC ring poll, RSS-steered
	// ring hop, and protocol processing (header parse and reply build). The
	// simulator models these as costs only; no packet bytes exist.
	NICPoll  simtime.Duration
	RingHop  simtime.Duration
	NetStack simtime.Duration
}

// Default returns the cost model measured in the paper at 2.0 GHz.
func Default() Model {
	return Model{
		SignalSend:    FromCycles(1224),
		SignalReceive: FromCycles(6359),
		SignalDeliver: FromCycles(5274),

		KernelIPISend:    FromCycles(437),
		KernelIPIReceive: FromCycles(1582),
		KernelIPIDeliver: FromCycles(1345),

		UserIPISend:    FromCycles(167),
		UserIPIReceive: FromCycles(661),
		UserIPIDeliver: FromCycles(1211),

		UserIPISendXNUMA:    FromCycles(178),
		UserIPIReceiveXNUMA: FromCycles(883),
		UserIPIDeliverXNUMA: FromCycles(1782),

		SetitimerReceive: FromCycles(5057),
		UserTimerReceive: FromCycles(642),
		SelfUIPIRearm:    FromCycles(123),

		UthreadYield:   37,
		UthreadSpawn:   191,
		UthreadMutex:   27,
		UthreadCondvar: 86,

		PthreadYield:   898,
		PthreadSpawn:   15418,
		PthreadMutex:   28,
		PthreadCondvar: 2532,

		AppSwitch:         1905,
		KthreadSwitch:     1124,
		KthreadSwitchWake: 2471,

		Syscall:    300,
		KernelTick: 500,

		SchedPick:     25,
		UthreadSwitch: 37,

		DispatchPoll: 30,

		GhostTxnCommit: 1100,
		GhostMessage:   900,

		NICPoll:  120,
		RingHop:  60,
		NetStack: 250,
	}
}

// Scale returns a copy of m with every cost multiplied by factor — used by
// the cost-sensitivity ablation to check that the paper's orderings are
// robust to the exact constants.
func (m Model) Scale(factor float64) Model {
	s := m
	fields := []*simtime.Duration{
		&s.SignalSend, &s.SignalReceive, &s.SignalDeliver,
		&s.KernelIPISend, &s.KernelIPIReceive, &s.KernelIPIDeliver,
		&s.UserIPISend, &s.UserIPIReceive, &s.UserIPIDeliver,
		&s.UserIPISendXNUMA, &s.UserIPIReceiveXNUMA, &s.UserIPIDeliverXNUMA,
		&s.SetitimerReceive, &s.UserTimerReceive, &s.SelfUIPIRearm,
		&s.UthreadYield, &s.UthreadSpawn, &s.UthreadMutex, &s.UthreadCondvar,
		&s.PthreadYield, &s.PthreadSpawn, &s.PthreadMutex, &s.PthreadCondvar,
		&s.AppSwitch, &s.KthreadSwitch, &s.KthreadSwitchWake,
		&s.Syscall, &s.KernelTick, &s.SchedPick, &s.UthreadSwitch,
		&s.DispatchPoll, &s.GhostTxnCommit, &s.GhostMessage,
		&s.NICPoll, &s.RingHop, &s.NetStack,
	}
	for _, f := range fields {
		*f = simtime.Duration(float64(*f) * factor)
	}
	return s
}
