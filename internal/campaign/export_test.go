package campaign

import "faultsec/internal/inject"

// SetOnConverged installs the paranoid convergence hook: every converged
// run also executes to its real end, and f receives its index with the
// result built from the golden end state and the executed one. The
// returned function uninstalls it.
func SetOnConverged(f func(idx int, synthesized, executed inject.Result)) (restore func()) {
	old := onConverged
	onConverged = f
	return func() { onConverged = old }
}
