// Package gospawn exercises the gospawn analyzer: bare goroutines are
// findings in deterministic packages; the same file loaded under a path
// outside the module must produce nothing (see TestGoSpawnOutOfScope).
package gospawn

func work() {}

func bad() {
	go work()   // want `bare goroutine in a deterministic package`
	go func() { // want `bare goroutine in a deterministic package`
		work()
	}()
}

// suppressed stands in for spawn-cost measurement code.
//
//simlint:allow gospawn fixture: real goroutine spawn is the measured quantity
func suppressed() {
	go work()
}

func legal() {
	work() // plain calls are fine; only the go keyword is flagged
	f := work
	f()
}
