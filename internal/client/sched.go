package client

// Process is one stepwise search running on one channel. The lockstep
// scheduler drives processes in global broadcast-time order, which models a
// client whose radios on all channels share one timeline.
type Process interface {
	// Peek returns the slot at which the process wants to act next. done
	// is true when the process has finished and will take no more steps.
	Peek() (slot int64, done bool)
	// Step performs the next action (typically: pop one candidate, prune
	// it or download it). Step is only called after Peek reported not
	// done.
	Step()
}

// RunParallel advances the given processes in global slot order until all
// are done: at each iteration the process with the smallest next-action
// slot takes exactly one step. Because processes on different channels
// never contend for the same radio, smallest-slot-first is exactly the
// behaviour of a client listening to all channels simultaneously, and it
// guarantees that when one process finishes (enabling, say, a Hybrid-NN
// redirect) the others have not yet acted past that moment.
func RunParallel(procs ...Process) {
	for StepEarliest(procs...) {
	}
}

// StepEarliest advances by one step the not-done process with the smallest
// next-action slot. It returns false (taking no step) when every process is
// done. Callers that need to interleave their own logic between steps —
// such as Hybrid-NN's finished-first redirects — drive this directly.
//
// Tie-break contract: when several processes want to act at the same slot,
// the one at the LOWEST SLICE INDEX steps first. This is deliberate and
// relied upon — within one query the S-channel process is always passed
// before the R-channel process, so equal-slot races resolve in channel
// order, identically on every run. Callers composing processes from
// several sources must therefore pass them in a canonical order.
func StepEarliest(procs ...Process) bool {
	bestIdx := -1
	var bestSlot int64
	for i, p := range procs {
		slot, done := p.Peek()
		if done {
			continue
		}
		// Strict < keeps the first (lowest-index) process on equal slots:
		// the documented deterministic tie-break.
		if bestIdx == -1 || slot < bestSlot {
			bestIdx, bestSlot = i, slot
		}
	}
	if bestIdx == -1 {
		return false
	}
	procs[bestIdx].Step()
	return true
}

// RunSequential drives procs one after another, each to completion, in the
// order given. This models the single-radio behaviour the adapted
// Window-Based algorithm exhibits in its estimate phase (the second NN
// query cannot start before the first finishes because its query point is
// the first one's result).
func RunSequential(procs ...Process) {
	for _, p := range procs {
		for {
			if _, done := p.Peek(); done {
				break
			}
			p.Step()
		}
	}
}
