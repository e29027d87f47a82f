package congest

import "fmt"

// Metrics aggregates the cost of a run. Rounds counts simulated synchronous
// rounds; ChargedRounds counts additional rounds an algorithm accounts by
// formula for pipelined sub-protocols whose internal scheduling does not
// affect the outcome (every such charge in this repository cites the
// paper's cost statement); TotalRounds is their sum and is the quantity the
// experiments report.
//
// Every message is one word, so an engine's WordsSent equals its
// MessagesSent. ProtocolViolations and HaltedNodes are kept for the
// metrics' JSON form: slot-addressed sends cannot reach a non-neighbor and
// processes do not halt, so the engine reports 0 for both.
type Metrics struct {
	Rounds               int
	ChargedRounds        int
	MessagesSent         int
	WordsSent            int
	MaxEdgeWordsPerRound int // most messages (one word each) sent over one directed edge in one round
	BandwidthViolations  int // rounds×edges that carried more than one message
	ProtocolViolations   int
	HaltedNodes          int
}

// TotalRounds returns simulated plus charged rounds.
func (m Metrics) TotalRounds() int { return m.Rounds + m.ChargedRounds }

// Add returns the element-wise sum of two metrics (MaxEdgeWordsPerRound takes
// the max). Used when an algorithm is composed of several simulator runs on
// the same graph.
func (m Metrics) Add(o Metrics) Metrics {
	out := Metrics{
		Rounds:              m.Rounds + o.Rounds,
		ChargedRounds:       m.ChargedRounds + o.ChargedRounds,
		MessagesSent:        m.MessagesSent + o.MessagesSent,
		WordsSent:           m.WordsSent + o.WordsSent,
		BandwidthViolations: m.BandwidthViolations + o.BandwidthViolations,
		ProtocolViolations:  m.ProtocolViolations + o.ProtocolViolations,
		HaltedNodes:         o.HaltedNodes,
	}
	out.MaxEdgeWordsPerRound = m.MaxEdgeWordsPerRound
	if o.MaxEdgeWordsPerRound > out.MaxEdgeWordsPerRound {
		out.MaxEdgeWordsPerRound = o.MaxEdgeWordsPerRound
	}
	return out
}

// String renders the metrics on one line.
func (m Metrics) String() string {
	return fmt.Sprintf("rounds=%d (+%d charged = %d) msgs=%d words=%d maxEdgeWords=%d bwViol=%d protoViol=%d",
		m.Rounds, m.ChargedRounds, m.TotalRounds(), m.MessagesSent, m.WordsSent,
		m.MaxEdgeWordsPerRound, m.BandwidthViolations, m.ProtocolViolations)
}
