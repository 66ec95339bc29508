// Package linuxsim assembles the Linux baselines of the paper's evaluation:
// schbench under SCHED_RR / CFS / EEVDF with the exact parameter sets of
// Table 5, and the non-preemptive worker-pool server scheduled by CFS that
// appears in Fig. 7a. Everything runs on the simulated kernel in
// internal/ksched.
package linuxsim

import (
	"skyloft/internal/hw"
	"skyloft/internal/ksched"
)

// Variant names a Table 5 Linux configuration.
type Variant string

const (
	RRDefault    Variant = "linux-rr"
	CFSDefault   Variant = "linux-cfs"
	CFSTuned     Variant = "linux-cfs-tuned"
	EEVDFDefault Variant = "linux-eevdf"
	EEVDFTuned   Variant = "linux-eevdf-tuned"
	BatchDefault Variant = "linux-batch"
)

// Variants lists all schbench configurations in Fig. 5 order.
func Variants() []Variant {
	return []Variant{RRDefault, CFSDefault, CFSTuned, EEVDFDefault, EEVDFTuned}
}

// Class reports the scheduling class a variant uses.
func (v Variant) Class() ksched.Class {
	switch v {
	case RRDefault:
		return ksched.ClassRR
	case EEVDFDefault, EEVDFTuned:
		return ksched.ClassEEVDF
	case BatchDefault:
		return ksched.ClassBatch
	default:
		return ksched.ClassCFS
	}
}

// Params reports the Table 5 parameters for a variant.
func (v Variant) Params() ksched.Params {
	switch v {
	case CFSTuned, EEVDFTuned:
		return ksched.TunedParams()
	case EEVDFDefault:
		// The stock 3 ms base slice, on a HZ=1000 kernel.
		p := ksched.DefaultParams()
		p.HZ = 1000
		return p
	default:
		return ksched.DefaultParams()
	}
}

// New builds a kernel for the variant on ncores cores (the taskset of
// §5.1: schbench is bound to 24 cores with the policy applied via chrt).
func New(v Variant, m *hw.Machine, ncores int, seed uint64) *ksched.Kernel {
	cpus := make([]int, ncores)
	for i := range cpus {
		cpus[i] = i
	}
	return ksched.New(ksched.Config{
		Machine: m,
		CPUs:    cpus,
		Params:  v.Params(),
		Class:   v.Class(),
		Seed:    seed,
	})
}
