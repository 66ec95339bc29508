// Package directives exercises simlint's directive hygiene: a malformed
// //simlint:allow — unknown analyzer, no analyzer, or no reason — or a
// malformed ownership annotation is itself a finding from the
// pseudo-analyzer "simlint", and the broken directive suppresses nothing.
package directives

import "time"

func badDirectives() {
	_ = time.Now()               //simlint:allow wallhack took a wrong turn // want `simlint:allow names unknown analyzer "wallhack"` `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) //simlint:allow wallclock // want `simlint:allow wallclock has no reason` `time\.Sleep reads the wall clock`
	//simlint:allow // want `simlint:allow directive names no analyzer`
}

func goodDirective() {
	_ = time.Now() //simlint:allow wallclock fixture: well-formed directive suppresses cleanly
}

// staleDirective carries a well-formed allow that excuses nothing: the
// stale-suppression audit reports it so dead exceptions cannot linger.
func staleDirective() {
	_ = 1 + 1 //simlint:allow wallclock fixture: nothing here reads the clock any more // want `simlint:allow wallclock matched no finding; the exception is stale`
}

// Malformed ownership annotations are hygiene findings too: an owner class
// other than "sim" ("lane" included), and an annotation
// floating inside a function body where no declaration can carry it.

//simlint:owner stack // want `simlint:owner needs the owner class "sim"`
type wat struct{ n int }

//simlint:owner lane // want `simlint:owner needs the owner class "sim"`
type shard struct{ n int }

func misplaced() {
	//simlint:owner sim // want `simlint:owner directive is not attached to a top-level type, field or function declaration`
	_ = 0
}
