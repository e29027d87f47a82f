package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Generators produce the workload graphs used throughout the experiment
// harness. All generators are deterministic given the same seed.
//
// Degenerate parameter values (n <= 0, p outside [0,1], ...) are clamped into
// the valid range rather than returning an error, because the experiment
// sweeps call generators with programmatically derived values.

// GNP returns an Erdős–Rényi random graph G(n, p): each of the C(n,2)
// possible edges is present independently with probability p. The generator
// uses geometric edge-skipping (Batagelj–Brandes), so it runs in O(n + m)
// expected time instead of scanning all C(n,2) pairs.
func GNP(n int, p float64, seed int64) *Graph {
	if n < 0 {
		n = 0
	}
	p = clamp01(p)
	b := NewBuilder(n)
	if p <= 0 || n < 2 {
		return b.Build()
	}
	if p >= 1 {
		return Complete(n)
	}
	rng := rand.New(rand.NewSource(seed))
	b.Grow(int(p*float64(n)*float64(n-1)/2) + 16)
	logq := math.Log1p(-p) // log(1-p) < 0
	// Walk the lower-triangular pair space {(u,v) : 0 <= v < u < n} with
	// geometric jumps: each miss-run length is ~ Geom(p). A jump past every
	// remaining pair ends the walk — checked in float space, because for
	// tiny p the skip can exceed MaxInt64 and the int conversion would wrap.
	pairSpace := float64(n) * float64(n)
	u, v := 1, -1
	for u < n {
		f := math.Log(1-rng.Float64()) / logq // >= 0
		if f >= pairSpace {
			break
		}
		skip := int(f)
		v += 1 + skip
		for u < n && v >= u {
			v -= u
			u++
		}
		if u < n {
			_ = b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// GNPWithAverageDegree returns G(n, p) with p chosen so that the expected
// average degree is avgDeg.
func GNPWithAverageDegree(n int, avgDeg float64, seed int64) *Graph {
	g, _ := GNPWithAverageDegreeEffective(n, avgDeg, seed)
	return g
}

// GNPWithAverageDegreeEffective is GNPWithAverageDegree, additionally
// returning the expected average degree actually realized after clamping the
// edge probability into [0, 1] (a request for avgDeg > n-1 or < 0 is silently
// clamped; the harness logs the returned effective value so generated table
// rows are self-describing).
func GNPWithAverageDegreeEffective(n int, avgDeg float64, seed int64) (*Graph, float64) {
	if n <= 1 {
		return NewBuilder(maxInt(n, 0)).Build(), 0
	}
	p := clamp01(avgDeg / float64(n-1))
	return GNP(n, p, seed), p * float64(n-1)
}

// RandomRegular returns a random d-regular-ish graph on n nodes generated by
// the pairing model: n*d half-edges are paired uniformly at random; self-loops
// and duplicate pairs are discarded, so a small number of nodes may end up
// with degree slightly below d. If n*d is odd, the last half-edge is dropped.
func RandomRegular(n, d int, seed int64) *Graph {
	g, _ := RandomRegularEffective(n, d, seed)
	return g
}

// RandomRegularEffective is RandomRegular, additionally returning the degree
// parameter actually used after clamping into [0, n-1] (the harness logs it
// so generated table rows are self-describing).
func RandomRegularEffective(n, d int, seed int64) (*Graph, int) {
	if n < 0 {
		n = 0
	}
	if d < 0 {
		d = 0
	}
	if d >= n && n > 0 {
		d = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	stubs := make([]NodeID, 0, n*d)
	for u := 0; u < n; u++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, NodeID(u))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := NewBuilder(n)
	b.Grow(len(stubs) / 2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue
		}
		_ = b.AddEdge(u, v)
	}
	return b.Build(), d
}

// Grid returns the rows×cols grid graph (4-neighborhood).
func Grid(rows, cols int) *Graph {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	b := NewBuilder(rows * cols)
	b.Grow(2 * rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				_ = b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				_ = b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows×cols torus (grid with wrap-around edges). Dimensions
// smaller than 3 fall back to the plain grid to avoid parallel edges.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		return Grid(rows, cols)
	}
	b := NewBuilder(rows * cols)
	b.Grow(2 * rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			_ = b.AddEdge(id(r, c), id(r, (c+1)%cols))
			_ = b.AddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Build()
}

// Path returns the path graph on n nodes.
func Path(n int) *Graph {
	b := NewBuilder(maxInt(n, 0))
	for u := 0; u+1 < n; u++ {
		_ = b.AddEdge(NodeID(u), NodeID(u+1))
	}
	return b.Build()
}

// Cycle returns the cycle graph on n nodes (a path for n < 3).
func Cycle(n int) *Graph {
	if n < 3 {
		return Path(n)
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		_ = b.AddEdge(NodeID(u), NodeID((u+1)%n))
	}
	return b.Build()
}

// Star returns the star graph K_{1,n-1} with node 0 as the center.
func Star(n int) *Graph {
	b := NewBuilder(maxInt(n, 0))
	for u := 1; u < n; u++ {
		_ = b.AddEdge(0, NodeID(u))
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(maxInt(n, 0))
	if n > 1 {
		b.Grow(n * (n - 1) / 2)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			_ = b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b} with the first a nodes on the left side.
func CompleteBipartite(a, b int) *Graph {
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}
	bl := NewBuilder(a + b)
	bl.Grow(a * b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			_ = bl.AddEdge(NodeID(u), NodeID(a+v))
		}
	}
	return bl.Build()
}

// BalancedTree returns the complete b-ary tree of the given depth (depth 0 is
// a single root).
func BalancedTree(branching, depth int) *Graph {
	if branching < 1 {
		branching = 1
	}
	if depth < 0 {
		depth = 0
	}
	// Number of nodes: 1 + b + b² + ... + b^depth.
	n := 1
	layer := 1
	for d := 0; d < depth; d++ {
		layer *= branching
		n += layer
	}
	b := NewBuilder(n)
	// Children of node i are branching*i+1 .. branching*i+branching.
	for u := 0; u < n; u++ {
		for k := 1; k <= branching; k++ {
			v := branching*u + k
			if v >= n {
				break
			}
			_ = b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// DoubleStar returns the tree from the paper's set-disjointness hardness
// discussion: an edge {a, b} with `leaves` leaf nodes attached to each of a
// and b. Node 0 is a, node 1 is b.
func DoubleStar(leaves int) *Graph {
	if leaves < 0 {
		leaves = 0
	}
	b := NewBuilder(2 + 2*leaves)
	_ = b.AddEdge(0, 1)
	for i := 0; i < leaves; i++ {
		_ = b.AddEdge(0, NodeID(2+i))
		_ = b.AddEdge(1, NodeID(2+leaves+i))
	}
	return b.Build()
}

// CliqueChain returns `count` cliques of size `size` arranged in a chain,
// consecutive cliques connected by a single bridge edge. The squares of these
// graphs contain very dense neighborhoods, which is the hard regime for the
// Reduce machinery (Section 2.1's clique intuition).
func CliqueChain(count, size int, _ int64) *Graph {
	if count < 0 {
		count = 0
	}
	if size < 1 {
		size = 1
	}
	n := count * size
	b := NewBuilder(n)
	b.Grow(count*size*(size-1)/2 + count)
	for c := 0; c < count; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				_ = b.AddEdge(NodeID(base+u), NodeID(base+v))
			}
		}
		if c+1 < count {
			_ = b.AddEdge(NodeID(base+size-1), NodeID(base+size))
		}
	}
	return b.Build()
}

// UnitDisk returns a random unit-disk graph: n points are placed uniformly at
// random in the unit square and two nodes are adjacent when their Euclidean
// distance is at most radius. This models the wireless-interference setting
// that motivates distance-2 coloring (frequency assignment). Candidate pairs
// are found through a uniform grid of cells no smaller than the radius, so
// generation is O(n + candidate pairs) instead of the all-pairs O(n²) scan.
func UnitDisk(n int, radius float64, seed int64) *Graph {
	g, _, _ := UnitDiskPositions(n, radius, seed)
	return g
}

// UnitDiskPositions is like UnitDisk but also returns the generated point
// coordinates (used by the wireless example for reporting).
func UnitDiskPositions(n int, radius float64, seed int64) (*Graph, []float64, []float64) {
	if n < 0 {
		n = 0
	}
	if radius < 0 {
		radius = 0
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	return unitDiskFromPoints(xs, ys, radius), xs, ys
}

// unitDiskFromPoints builds the unit-disk graph over fixed points with a
// grid-bucket sweep: cells are at least radius wide, so every edge connects
// points in the same or 8-adjacent cells.
func unitDiskFromPoints(xs, ys []float64, radius float64) *Graph {
	n := len(xs)
	b := NewBuilder(n)
	if n == 0 || radius <= 0 {
		return b.Build()
	}
	// cells per axis: at most 1/radius (so one cell spans >= radius and the
	// 3×3 neighborhood covers every candidate), at most ~sqrt(n) (so the
	// bucket table stays O(n) even for tiny radii), and at least 1.
	cells := int(1 / radius)
	if byN := int(math.Sqrt(float64(n))) + 1; cells > byN {
		cells = byN
	}
	if cells < 1 {
		cells = 1
	}
	cellOf := func(x float64) int {
		c := int(x * float64(cells))
		if c >= cells {
			c = cells - 1
		}
		return c
	}
	// Bucket the points with a counting sort (head/next lists would also
	// work, but CSR buckets keep the sweep cache-friendly).
	cnt := make([]int32, cells*cells+1)
	for i := 0; i < n; i++ {
		cnt[cellOf(xs[i])*cells+cellOf(ys[i])+1]++
	}
	for c := 1; c <= cells*cells; c++ {
		cnt[c] += cnt[c-1]
	}
	bucket := make([]int32, n)
	pos := make([]int32, cells*cells)
	copy(pos, cnt[:cells*cells])
	for i := 0; i < n; i++ {
		c := cellOf(xs[i])*cells + cellOf(ys[i])
		bucket[pos[c]] = int32(i)
		pos[c]++
	}
	r2 := radius * radius
	try := func(u, v int32) {
		if v <= u {
			return
		}
		dx, dy := xs[u]-xs[v], ys[u]-ys[v]
		if dx*dx+dy*dy <= r2 {
			_ = b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	for cx := 0; cx < cells; cx++ {
		for cy := 0; cy < cells; cy++ {
			c := cx*cells + cy
			mine := bucket[cnt[c]:cnt[c+1]]
			for dxc := -1; dxc <= 1; dxc++ {
				for dyc := -1; dyc <= 1; dyc++ {
					ox, oy := cx+dxc, cy+dyc
					if ox < 0 || ox >= cells || oy < 0 || oy >= cells {
						continue
					}
					oc := ox*cells + oy
					if oc < c {
						continue // each unordered cell pair is swept once
					}
					other := bucket[cnt[oc]:cnt[oc+1]]
					for _, u := range mine {
						if oc == c {
							for _, v := range other {
								try(u, v)
							}
						} else {
							for _, v := range other {
								if v > u {
									try(u, v)
								} else {
									try(v, u)
								}
							}
						}
					}
				}
			}
		}
	}
	return b.Build()
}

// TaskResource returns a random bipartite "task/resource" graph: tasks
// (first `tasks` node IDs) each use `perTask` distinct resources chosen
// uniformly at random. Strong coloring of the induced hypergraph corresponds
// to d2-coloring the task side (Section 1, "Why d2-coloring?").
//
// Each task draws its resources with perTask steps of a partial
// Fisher–Yates shuffle over one permutation kept across tasks: the first k
// steps of a shuffle from any starting order pick a uniform k-subset, so no
// task pays for a fresh permutation and generation costs
// O(resources + tasks·perTask).
func TaskResource(tasks, resources, perTask int, seed int64) *Graph {
	if tasks < 0 {
		tasks = 0
	}
	if resources < 0 {
		resources = 0
	}
	if perTask > resources {
		perTask = resources
	}
	if perTask < 0 {
		perTask = 0
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(tasks + resources)
	b.Grow(tasks * perTask)
	perm := make([]int, resources)
	for i := range perm {
		perm[i] = i
	}
	for t := 0; t < tasks; t++ {
		for k := 0; k < perTask; k++ {
			j := k + rng.Intn(resources-k)
			perm[k], perm[j] = perm[j], perm[k]
			_ = b.AddEdge(NodeID(t), NodeID(tasks+perm[k]))
		}
	}
	return b.Build()
}

// BarabasiAlbert returns a power-law graph grown by preferential attachment:
// a seed clique on m+1 nodes, then every new node attaches m edges to
// distinct existing nodes chosen with probability proportional to their
// current degree. The degree sequence follows the heavy-tailed P(d) ∝ d⁻³
// law of the Albert–Barabási model — the production-shaped topology (hubs
// plus a long tail of low-degree leaves) the random GNP/unit-disk families
// cannot produce. m is clamped to [1, n-1]; see BarabasiAlbertEffective.
func BarabasiAlbert(n, m int, seed int64) *Graph {
	g, _ := BarabasiAlbertEffective(n, m, seed)
	return g
}

// BarabasiAlbertEffective is BarabasiAlbert returning the attachment count
// actually used: m is clamped to [1, n-1] (0 for n ≤ 1, where no edge can
// exist). The invariants the property tests pin: exactly
// m(m+1)/2 + (n-m-1)·m edges, minimum degree ≥ m, and connectivity.
func BarabasiAlbertEffective(n, m int, seed int64) (*Graph, int) {
	if n < 0 {
		n = 0
	}
	b := NewBuilder(n)
	if n <= 1 {
		return b.Build(), 0
	}
	if m < 1 {
		m = 1
	}
	if m > n-1 {
		m = n - 1
	}
	m0 := m + 1 // seed clique size: every early node starts with degree ≥ m
	edges := m*(m+1)/2 + (n-m0)*m
	b.Grow(edges)
	// endpoints holds both endpoints of every edge added so far, so a
	// uniform draw from it is exactly a degree-proportional node draw — the
	// standard repeated-endpoints implementation of preferential attachment.
	endpoints := make([]NodeID, 0, 2*edges)
	rng := rand.New(rand.NewSource(seed))
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			_ = b.AddEdge(NodeID(u), NodeID(v))
			endpoints = append(endpoints, NodeID(u), NodeID(v))
		}
	}
	picked := make([]NodeID, 0, m)
	for v := m0; v < n; v++ {
		picked = picked[:0]
		misses := 0
		for len(picked) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if slices.Contains(picked, t) {
				// Bounded rejection keeps the draw degree-proportional among
				// distinct targets; the deterministic fallback guarantees
				// termination even on degenerate repeated draws.
				if misses++; misses < 64 {
					continue
				}
				for u := NodeID(0); int(u) < v; u++ {
					if !slices.Contains(picked, u) {
						t = u
						break
					}
				}
			}
			misses = 0
			picked = append(picked, t)
		}
		for _, u := range picked {
			_ = b.AddEdge(NodeID(v), u)
			endpoints = append(endpoints, NodeID(v), u)
		}
	}
	return b.Build(), m
}

// GeneratorSpec names a generator together with its parameters, used by the
// harness and the graphgen CLI.
type GeneratorSpec struct {
	Kind   string  // "gnp", "ba", "regular", "grid", "torus", "tree", "cliquechain", "unitdisk", "taskresource", "complete", "cycle", "path", "star", "doublestar"
	N      int     // primary size parameter
	M      int     // secondary size parameter (cols, clique size, resources, ...)
	Degree int     // degree-like parameter (d, branching, perTask, leaves)
	P      float64 // probability / radius
	Seed   int64
}

// Generate instantiates the graph described by the spec.
func (s GeneratorSpec) Generate() (*Graph, error) {
	switch s.Kind {
	case "gnp":
		return GNP(s.N, s.P, s.Seed), nil
	case "gnp-avg":
		return GNPWithAverageDegree(s.N, s.P, s.Seed), nil
	case "ba":
		return BarabasiAlbert(s.N, s.Degree, s.Seed), nil
	case "regular":
		return RandomRegular(s.N, s.Degree, s.Seed), nil
	case "grid":
		return Grid(s.N, s.M), nil
	case "torus":
		return Torus(s.N, s.M), nil
	case "tree":
		return BalancedTree(s.Degree, s.N), nil
	case "cliquechain":
		return CliqueChain(s.N, s.M, s.Seed), nil
	case "unitdisk":
		return UnitDisk(s.N, s.P, s.Seed), nil
	case "taskresource":
		return TaskResource(s.N, s.M, s.Degree, s.Seed), nil
	case "complete":
		return Complete(s.N), nil
	case "cycle":
		return Cycle(s.N), nil
	case "path":
		return Path(s.N), nil
	case "star":
		return Star(s.N), nil
	case "doublestar":
		return DoubleStar(s.Degree), nil
	case "petersen":
		return Petersen(), nil
	case "hoffman-singleton":
		return HoffmanSingleton(), nil
	default:
		return nil, fmt.Errorf("graph: unknown generator kind %q", s.Kind)
	}
}

// Size returns, without generating anything, the node count Generate would
// produce and its edge count, both after Generate's parameter clamps. The
// node count is exact. The edge count is exact for the deterministic kinds
// and for ba and taskresource; it is the expected count for gnp, gnp-avg
// and unitdisk, and the pairing model's n·d/2 upper bound for regular. Both
// are float64 so that no parameter, however large, overflows: a caller can
// refuse a spec before Generate tries to allocate it. Unknown kinds get
// Generate's error.
func (s GeneratorSpec) Size() (nodes, edges float64, err error) {
	n := float64(max(s.N, 0))
	pairs := n * (n - 1) / 2
	switch s.Kind {
	case "gnp":
		return n, clamp01(s.P) * max(pairs, 0), nil
	case "gnp-avg":
		if n <= 1 {
			return n, 0, nil
		}
		return n, clamp01(s.P/(n-1)) * pairs, nil
	case "ba":
		if n <= 1 {
			return n, 0, nil
		}
		m := min(max(float64(s.Degree), 1), n-1)
		return n, m*(m+1)/2 + (n-m-1)*m, nil
	case "regular":
		d := max(float64(s.Degree), 0)
		if d >= n && n > 0 {
			d = n - 1
		}
		return n, math.Floor(n * d / 2), nil
	case "grid", "torus":
		rows, cols := n, float64(max(s.M, 0))
		if s.Kind == "torus" && rows >= 3 && cols >= 3 {
			return rows * cols, 2 * rows * cols, nil
		}
		if rows == 0 || cols == 0 {
			return 0, 0, nil
		}
		return rows * cols, 2*rows*cols - rows - cols, nil
	case "tree":
		b, depth := float64(max(s.Degree, 1)), n
		nodes := depth + 1 // 1 + b + … + b^depth
		if b > 1 {
			nodes = (math.Pow(b, depth+1) - 1) / (b - 1)
		}
		return nodes, nodes - 1, nil
	case "cliquechain":
		size := float64(max(s.M, 1))
		return n * size, n*size*(size-1)/2 + max(n-1, 0), nil
	case "unitdisk":
		// The probability that two uniform points of the unit square lie
		// within distance r is πr² − 8r³/3 + r⁴/2 for r ≤ 1; at r = 1 it is
		// 0.975, so 1 bounds it beyond.
		r := max(s.P, 0)
		p := 1.0
		if r <= 1 {
			p = math.Pi*r*r - 8*r*r*r/3 + r*r*r*r/2
		}
		return n, p * max(pairs, 0), nil
	case "taskresource":
		resources := float64(max(s.M, 0))
		perTask := max(min(float64(s.Degree), resources), 0)
		return n + resources, n * perTask, nil
	case "complete":
		return n, max(pairs, 0), nil
	case "cycle":
		if n >= 3 {
			return n, n, nil
		}
		return n, max(n-1, 0), nil
	case "path", "star":
		return n, max(n-1, 0), nil
	case "doublestar":
		leaves := float64(max(s.Degree, 0))
		return 2 + 2*leaves, 1 + 2*leaves, nil
	case "petersen":
		return 10, 15, nil
	case "hoffman-singleton":
		return 50, 175, nil
	default:
		return 0, 0, fmt.Errorf("graph: unknown generator kind %q", s.Kind)
	}
}

// String returns a compact description of the spec, suitable for table labels.
func (s GeneratorSpec) String() string {
	return fmt.Sprintf("%s(n=%d,m=%d,d=%d,p=%.3g,seed=%d)", s.Kind, s.N, s.M, s.Degree, s.P, s.Seed)
}

func clamp01(p float64) float64 {
	switch {
	case math.IsNaN(p), p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
