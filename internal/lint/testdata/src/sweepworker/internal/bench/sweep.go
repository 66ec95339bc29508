// Fixture mirroring the sanctioned sweep-pool spawn site: this file's
// on-disk path ends in internal/bench/sweep.go, so the gospawn file
// allowlist must suppress its goroutine finding (it stays in the raw
// stream, marked with the allowlist reason).
package sweepworker

import "sync"

type pool struct{ done []int }

func (p *pool) work(i int) { p.done[i]++ }

func (p *pool) fanOut() {
	var wg sync.WaitGroup
	wg.Add(len(p.done))
	for i := range p.done {
		go func(i int) { // allowlisted: no want comment
			defer wg.Done()
			p.work(i)
		}(i)
	}
	wg.Wait()
}
