package mpi

import (
	"fmt"
	"slices"
)

// A rank holds the turn until it waits or returns, then hands it to the
// next runnable rank in cyclic rank order, by a channel send: what one
// holder wrote happens-before the next runs. A waiting rank becomes
// runnable when something may end its wait (a rendezvous completes, a
// message is delivered to it, the world aborts) and then rechecks.
type rankState uint8

const (
	runnable rankState = iota
	waiting
	done
)

// turnSeed, when nonzero, makes each World NewWorld creates hand the
// turn on from a seeded random rank instead of the rank handing it on.
// Only the package's tests set it, to show results do not depend on it.
var turnSeed uint64

// handOff passes the turn from rank from (-1: Run starting) to the next
// runnable rank. When no unfinished rank can run, the world deadlocked:
// it aborts, which makes every waiting rank runnable.
func (w *World) handOff(from int) {
	for {
		start := from + 1
		if w.rng != nil {
			start = w.rng.IntN(w.size)
		}
		for i := range w.size {
			if r := (start + i) % w.size; w.state[r] == runnable {
				w.turn[r] <- struct{}{}
				return
			}
		}
		if !slices.Contains(w.state, waiting) {
			return // every rank has returned
		}
		msg := "deadlock: every unfinished rank waits in Recv"
		if w.rv.arrived > 0 {
			msg = fmt.Sprintf("deadlock: %d of %d ranks wait in %s", w.rv.arrived, w.size, w.rv.op)
		}
		w.abort(msg)
	}
}

// wait hands the turn on until something may end this rank's wait, and
// returns holding the turn again; the caller rechecks its condition.
func (w *World) wait(rank int) {
	w.state[rank] = waiting
	w.handOff(rank)
	<-w.turn[rank]
	w.checkAbort()
}

// wake makes rank runnable if it waits.
func (w *World) wake(rank int) {
	if w.state[rank] == waiting {
		w.state[rank] = runnable
	}
}
