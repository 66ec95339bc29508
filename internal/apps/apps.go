// Package apps defines the engine-agnostic application abstractions used
// by the evaluation workloads. A System is anything that can host threads —
// a Skyloft application (core.App) or the simulated Linux kernel
// (ksched.Kernel) — so each workload is written once and measured on every
// system, as in the paper.
package apps

import "skyloft/internal/sched"

// System hosts threads. core.App and ksched.Kernel both satisfy it.
type System interface {
	Start(name string, body sched.Func) *sched.Thread
}

// QuickSystem hosts quick threads (sched.Quick): request handlers that do
// their work and then need the CPU once, run without a coroutine behind
// the thread. It is the thread-per-request path of the open-loop
// experiments, which create millions of short threads. core.App
// implements it.
type QuickSystem interface {
	StartQuick(name string, q sched.Quick) *sched.Thread
}
