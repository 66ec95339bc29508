// The allowlist is per-file, not per-package: a goroutine in a sibling
// file of the same fixture package must still be reported.
package sweepworker

func rogueSpawn(p *pool) {
	go p.work(0) // want `bare goroutine in a deterministic package`
}
