package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// flightGroup coalesces concurrent identical work: the first caller of Do
// for a key becomes the leader and runs fn, every caller that arrives while
// the leader is still running becomes a follower and waits for the leader's
// result instead of repeating the evaluation. On a Zipf-skewed keyword
// workload a thundering herd on a hot query is the common case, not the
// exception — coalescing turns N identical in-flight searches into one
// engine evaluation plus N-1 channel waits.
//
// Keys carry the engine generation (see queryKey), so a leader started
// before a hot reload never hands its result to a follower that arrived
// after the swap: the follower's key differs and it starts its own flight
// against the new generation.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightCall is one in-flight evaluation with its eventual outcome.
type flightCall struct {
	done chan struct{}
	out  queryOutcome
	err  error
}

// Do runs fn for key, coalescing with an identical in-flight call if one
// exists. It reports the outcome, whether this caller was a follower riding
// an existing flight, and a context error when ctx ended before the flight
// finished (followers stop waiting when their own request dies; the leader's
// evaluation keeps running for the remaining followers, bounded by its own
// deadline).
//
// A panic in fn is contained to the flight: the leader recovers it, frees the
// key so the next identical query evaluates afresh, and hands itself and
// every follower an error wrapping errFlightPanic, which the handlers map to
// the typed internal error.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (queryOutcome, error)) (out queryOutcome, coalesced bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.out, true, c.err
		case <-ctx.Done():
			return queryOutcome{}, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			c.out, c.err = queryOutcome{}, fmt.Errorf("%w: %v", errFlightPanic, r)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		out, err = c.out, c.err
	}()
	c.out, c.err = fn()
	return c.out, false, c.err
}

// errFlightPanic reports that a flight's evaluation panicked.
var errFlightPanic = errors.New("server: query evaluation panicked")
