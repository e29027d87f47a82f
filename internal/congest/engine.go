package congest

import "fmt"

// Run executes rounds until every process has halted, returning the number
// of simulated rounds. It returns ErrRoundLimit if the configured limit is
// hit, ErrNoProcess if some node has no process installed, and ErrCanceled
// once the SetCancel hook fires.
func (e *Engine) Run() (int, error) {
	for v := range e.procs {
		if e.procs[v] == nil {
			return e.round, fmt.Errorf("%w: node %d", ErrNoProcess, v)
		}
	}
	start := e.round
	for !e.AllHalted() {
		if e.round-start >= e.cfg.MaxRounds {
			return e.round, fmt.Errorf("%w (%d rounds)", ErrRoundLimit, e.cfg.MaxRounds)
		}
		if e.cancel != nil && e.cancel() {
			return e.round, fmt.Errorf("%w (after %d rounds)", ErrCanceled, e.round-start)
		}
		e.step()
	}
	return e.round, nil
}

// SetCancel installs a cooperative cancellation hook, polled by Run and
// RunRounds between rounds: the first poll that returns true stops the loop
// before the next round starts, so a canceled run ends within O(one round)
// regardless of how many rounds were requested. The hook is never consulted
// mid-round — a round either runs to completion or not at all — which keeps
// the per-round state machine (message plane epoch, inbox buffers, metrics)
// consistent at every stopping point. Reset clears the hook, so warm reuse
// after a cancel is byte-identical to a fresh engine. A nil hook (the
// default) disables polling entirely; the hot path pays one nil check per
// round.
func (e *Engine) SetCancel(f func() bool) { e.cancel = f }

// RunRounds executes exactly k rounds (halted processes are not stepped),
// returning early if the SetCancel hook fires.
func (e *Engine) RunRounds(k int) {
	for i := 0; i < k; i++ {
		if e.cancel != nil && e.cancel() {
			return
		}
		e.step()
	}
}

// Close parks the worker team permanently (idempotent, never blocks on a
// pending round — see shardTeam.stop); it is a no-op for an inline engine. A
// closed engine must not be stepped again; everything else (Metrics, ID,
// Graph, ...) stays readable.
func (e *Engine) Close() {
	if e.team != nil {
		e.team.stop()
	}
}

// step executes one synchronous round: compute, account, deliver, advance.
//
// Inline (a plan of zero workers: Workers ≤ 1, or a graph rebound to fewer
// than two nodes), the caller's goroutine steps every node and then
// delivers every inbox, in node order. With a team, the publisher (this
// goroutine) resets the per-rank cursors and metrics, wakes the team, works
// as rank 0 through the fused compute+deliver pipeline, and merges the shard
// metrics once every rank is done. Reset never touches the team or the plan,
// so a reused engine keeps its goroutines and its ownership map.
//
// Determinism relies on ownership and commutativity, not scheduling: a
// node's step writes only its own state and its own out-slots of the message
// plane, delivery for a destination reads the plane (frozen at the barrier)
// and writes only that destination's inbox, and every chunk is claimed by
// exactly one rank per phase (one atomic cursor claim). The per-rank
// delivery metrics merge by integer sum and maximum — order-independent and
// exact — and the compute-side send counters are folded by the publisher in
// node order, so the result is byte-identical to the inline round for every
// worker count and every steal schedule.
func (e *Engine) step() {
	if e.plan.workers == 0 {
		e.computeChunk(0, int32(e.g.NumNodes()))
		e.collectSendCounters()
		e.deliverRange(0, e.g.NumNodes(), &e.metrics)
		e.finishRound()
		return
	}
	for w := range e.ws {
		ws := &e.ws[w]
		ws.metrics = Metrics{}
		ws.computeNext.Store(e.plan.firstChunk[w])
		ws.deliverNext.Store(e.plan.firstChunk[w])
	}
	e.team.publish() // compute ∥ … barrier … deliver ∥ …
	// The send counters are folded after delivery here rather than between
	// the phases (the inline order): they are only written by node steps and
	// only read by the fold, and they land in Metrics fields disjoint from
	// the delivery-phase ones, so folding them after the fused round is
	// byte-identical.
	e.collectSendCounters()
	for w := range e.ws {
		sm := &e.ws[w].metrics
		if sm.MaxEdgeWordsPerRound > e.metrics.MaxEdgeWordsPerRound {
			e.metrics.MaxEdgeWordsPerRound = sm.MaxEdgeWordsPerRound
		}
		e.metrics.BandwidthViolations += sm.BandwidthViolations
	}
	e.finishRound()
}

// computePhase steps the nodes of every chunk rank w claims: its own chunks
// first, then — work-stealing tail — whatever chunks the other shards have
// not claimed yet, scanning victims round-robin from its right neighbor.
// Claiming via the victim's own cursor keeps "exactly one executor per
// chunk" a single atomic invariant.
func (e *Engine) computePhase(w int) {
	for off := 0; off < e.plan.workers; off++ {
		v := w + off
		if v >= e.plan.workers {
			v -= e.plan.workers
		}
		vw, end := &e.ws[v], e.plan.firstChunk[v+1]
		for {
			chunk := vw.computeNext.Add(1) - 1
			if chunk >= end {
				break
			}
			e.computeChunk(e.plan.chunkLo[chunk], e.plan.chunkLo[chunk+1])
		}
	}
}

// computeChunk steps the live nodes of [lo, hi) in node order.
func (e *Engine) computeChunk(lo, hi int32) {
	for v := lo; v < hi; v++ {
		if e.procs[v] == nil || e.halted[v] {
			continue
		}
		e.halted[v] = e.procs[v].Step(&e.ctxs[v], e.round, e.inboxes[v])
	}
}

// deliverPhase assembles inboxes for every chunk rank w claims, with the
// same owned-then-steal walk as computePhase. Stolen chunks account into the
// thief's metrics — sums and maxima make the merge independent of who
// delivered what.
func (e *Engine) deliverPhase(w int) {
	m := &e.ws[w].metrics
	for off := 0; off < e.plan.workers; off++ {
		v := w + off
		if v >= e.plan.workers {
			v -= e.plan.workers
		}
		vw, end := &e.ws[v], e.plan.firstChunk[v+1]
		for {
			chunk := vw.deliverNext.Add(1) - 1
			if chunk >= end {
				break
			}
			e.deliverRange(int(e.plan.chunkLo[chunk]), int(e.plan.chunkLo[chunk+1]), m)
		}
	}
}
