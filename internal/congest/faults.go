package congest

import "d2color/internal/graph"

// This file is the engine side of the robustness plane: fault injection
// (message drops and transient node crashes, decided by a pluggable
// FaultModel) and cooperative cancellation.
//
// Both are strictly opt-in overlays on the round loop: with a nil fault
// model and a nil hook the engine takes the exact code paths it takes
// without them, so the byte-determinism goldens of the fault-free case are
// untouched. Reset clears both — a reset engine is byte-identical to a
// freshly constructed one, which is the contract the warm-reuse machinery
// depends on.

// FaultModel injects faults into an engine's round loop. Implementations
// must be deterministic pure functions of their own configuration and the
// (round, slot/node) arguments — the engine may evaluate them from multiple
// workers concurrently and in any order, so any internal counters must be
// atomic and must not influence results.
//
// Concrete models live in internal/fault; the interface is defined here so
// the engine does not depend on the injector package.
type FaultModel interface {
	// DropMessage reports whether the message in directed-edge out-slot slot
	// is lost during round's delivery phase. It is consulted once per slot
	// that actually carries a message this round, so implementations may
	// count invocations to report exact loss totals.
	DropMessage(round int, slot int32) bool
	// Crashed reports whether node v is down in round: a crashed node does
	// not step and its incoming messages for the round are lost. A node
	// whose crash window ends resumes from its retained process state
	// (crash-restart, not crash-stop).
	Crashed(round int, v graph.NodeID) bool
}

// SetFaults installs a fault model for subsequent rounds (nil disables
// injection). Reset clears it.
func (e *Engine) SetFaults(f FaultModel) { e.faults = f }

// SetCancel installs a cooperative cancellation hook, polled by RunRounds
// (and Run) between rounds: the first poll that returns true stops the loop
// before the next round starts, so a canceled run ends within O(one round)
// regardless of how many rounds were requested. The hook is never consulted
// mid-round — a round either runs to completion or not at all — which keeps
// the per-round state machine (message plane epoch, inbox buffers, metrics)
// consistent at every stopping point. Reset clears the hook along with the
// fault model, so warm reuse after a cancel is byte-identical to a fresh
// engine. A nil hook (the default) disables polling entirely; the hot path
// pays one nil check per round.
func (e *Engine) SetCancel(f func() bool) { e.cancel = f }

// skipped reports whether node v sits out the current round inside a crash
// window. Used by both the compute and delivery phases, which run within the
// same round, so the two observe the same answer.
func (e *Engine) skipped(v int) bool {
	return e.faults != nil && e.faults.Crashed(e.round, graph.NodeID(v))
}
