package congest

import (
	"errors"
	"fmt"

	"d2color/internal/graph"
)

// This file provides small reusable CONGEST protocols built on the simulator:
// leader election by max-UID flooding, BFS tree construction and a
// convergecast aggregation. They are the standard building blocks the paper's
// constructions take for granted (flooding live-node information, aggregating
// conditional expectations over cluster trees, ...) and are exercised by the
// library's tests as end-to-end validation of the simulator itself.

// ErrProtocol is returned when a protocol terminates without reaching its
// expected final state (e.g. run on a disconnected graph).
var ErrProtocol = errors.New("congest: protocol failed")

// Message kinds of the built-in protocols. Kinds are scoped to the network a
// protocol runs on, so these values are free for reuse by other protocols.
const (
	kindFloodUID   Kind = iota + 1 // Word = the flooded UID
	kindBFSDepth                   // Word = sender's BFS depth
	kindPartialSum                 // Word = EncodeInt64(partial subtree sum)
)

// FloodMaxResult is the outcome of FloodMax.
type FloodMaxResult struct {
	// LeaderUID is the maximum UID in each node's component, indexed by node.
	LeaderUID []uint64
	// Metrics is the simulation cost.
	Metrics Metrics
}

// floodMaxProcess floods the maximum UID seen so far for a fixed number of
// rounds (an upper bound on the diameter).
type floodMaxProcess struct {
	best   uint64
	rounds int
}

func (p *floodMaxProcess) Step(ctx *Context, round int, inbox []Message) bool {
	if round == 0 {
		p.best = ctx.UID()
	}
	changed := round == 0
	for _, m := range inbox {
		if m.Kind == kindFloodUID && m.Word > p.best {
			p.best = m.Word
			changed = true
		}
	}
	if round >= p.rounds {
		return true
	}
	if changed {
		ctx.Broadcast(kindFloodUID, p.best)
	}
	return false
}

// FloodMax runs max-UID flooding for maxRounds rounds (use an upper bound on
// the diameter; n always works) and returns the maximum UID each node has
// seen — in a connected graph, the elected leader.
func FloodMax(g *graph.Graph, cfg Config, maxRounds int) (FloodMaxResult, error) {
	if maxRounds <= 0 {
		maxRounds = g.NumNodes()
	}
	net := New(g, cfg)
	defer net.Close()
	procs := make([]*floodMaxProcess, g.NumNodes())
	net.SetProcesses(func(v graph.NodeID) Process {
		procs[v] = &floodMaxProcess{rounds: maxRounds}
		return procs[v]
	})
	if _, err := net.Run(); err != nil {
		return FloodMaxResult{}, fmt.Errorf("floodmax: %w", err)
	}
	res := FloodMaxResult{LeaderUID: make([]uint64, g.NumNodes()), Metrics: net.Metrics()}
	for v, p := range procs {
		res.LeaderUID[v] = p.best
	}
	return res, nil
}

// BFSTreeResult is the outcome of BFSTree.
type BFSTreeResult struct {
	// Parent[v] is v's parent in the BFS tree rooted at Root; the root's
	// parent is itself; unreachable nodes have parent -1.
	Parent []graph.NodeID
	// Depth[v] is the BFS depth (-1 if unreachable).
	Depth []int
	// Metrics is the simulation cost.
	Metrics Metrics
}

type bfsProcess struct {
	root     bool
	joined   bool
	parent   graph.NodeID
	depth    int
	maxRound int
}

func (p *bfsProcess) Step(ctx *Context, round int, inbox []Message) bool {
	if round == 0 && p.root {
		p.joined = true
		p.depth = 0
		p.parent = ctx.NodeID()
		ctx.Broadcast(kindBFSDepth, 0)
	}
	if !p.joined {
		for _, m := range inbox {
			if m.Kind == kindBFSDepth {
				p.joined = true
				p.parent = m.From
				p.depth = int(m.Word) + 1
				ctx.Broadcast(kindBFSDepth, uint64(p.depth))
				break
			}
		}
	}
	return round >= p.maxRound
}

// BFSTree builds a BFS spanning tree rooted at root. maxRounds bounds the
// execution (use an upper bound on the eccentricity of the root; n works).
func BFSTree(g *graph.Graph, cfg Config, root graph.NodeID, maxRounds int) (BFSTreeResult, error) {
	n := g.NumNodes()
	if int(root) < 0 || int(root) >= n {
		return BFSTreeResult{}, fmt.Errorf("%w: root %d out of range", ErrProtocol, root)
	}
	if maxRounds <= 0 {
		maxRounds = n
	}
	net := New(g, cfg)
	defer net.Close()
	procs := make([]*bfsProcess, n)
	net.SetProcesses(func(v graph.NodeID) Process {
		procs[v] = &bfsProcess{root: v == root, maxRound: maxRounds}
		return procs[v]
	})
	if _, err := net.Run(); err != nil {
		return BFSTreeResult{}, fmt.Errorf("bfstree: %w", err)
	}
	res := BFSTreeResult{
		Parent:  make([]graph.NodeID, n),
		Depth:   make([]int, n),
		Metrics: net.Metrics(),
	}
	for v, p := range procs {
		if p.joined {
			res.Parent[v] = p.parent
			res.Depth[v] = p.depth
		} else {
			res.Parent[v] = -1
			res.Depth[v] = -1
		}
	}
	return res, nil
}

// ConvergecastSum aggregates the sum of per-node values up a BFS tree to the
// root and returns the total the root computed. The tree must come from
// BFSTree on the same graph; unreachable nodes are ignored. The protocol runs
// for depth(tree) rounds: in round r, nodes at depth maxDepth-r send their
// partial sums to their parents.
func ConvergecastSum(g *graph.Graph, cfg Config, tree BFSTreeResult, values []int64) (int64, Metrics, error) {
	n := g.NumNodes()
	if len(values) != n || len(tree.Parent) != n {
		return 0, Metrics{}, fmt.Errorf("%w: convergecast input lengths mismatch", ErrProtocol)
	}
	maxDepth := 0
	for _, d := range tree.Depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	sums := make([]int64, n)
	copy(sums, values)

	net := New(g, cfg)
	defer net.Close()
	var rootTotal int64
	net.SetProcesses(func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
			for _, m := range inbox {
				if m.Kind == kindPartialSum {
					sums[v] += DecodeInt64(m.Word)
				}
			}
			depth := tree.Depth[v]
			if depth < 0 {
				return true
			}
			// Send to the parent exactly when every child has reported:
			// children are at depth+1 and send in round maxDepth-(depth+1),
			// so this node sends in round maxDepth-depth.
			if round == maxDepth-depth {
				if depth == 0 {
					rootTotal = sums[v]
					return true
				}
				_ = ctx.Send(tree.Parent[v], kindPartialSum, EncodeInt64(sums[v]))
				return true
			}
			return false
		})
	})
	if _, err := net.Run(); err != nil {
		return 0, Metrics{}, fmt.Errorf("convergecast: %w", err)
	}
	return rootTotal, net.Metrics(), nil
}
