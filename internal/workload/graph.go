// Package workload generates deterministic synthetic inputs that substitute
// for the paper's proprietary datasets: grid and triangular meshes for the
// DIMACS graphs, grid road networks with coordinates for the USA/Germany
// road maps, a preferential-attachment social graph for com-youtube, a
// carry-save-adder circuit for csaArray32,
// tornado traffic for the GARNET mesh, a TPC-C-like transaction mix for
// silo, overlapping gene segments for genome, and Gaussian point clouds for
// kmeans. All generators are seeded and reproducible.
package workload

import "math/rand"

// Graph is a host-side CSR graph used both to lay out simulated memory and
// to compute serial reference results.
type Graph struct {
	N   int
	Off []int32 // length N+1
	Dst []int32
	W   []uint32 // edge weights, parallel to Dst (1 for unweighted)
	// X, Y are planar coordinates when the graph is geometric (road maps),
	// used by astar's heuristic; nil otherwise.
	X, Y []int32
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int { return int(g.Off[v+1] - g.Off[v]) }

// Edges calls fn for every edge (v, dst, w).
func (g *Graph) Edges(v int, fn func(dst int, w uint32)) {
	for i := g.Off[v]; i < g.Off[v+1]; i++ {
		fn(int(g.Dst[i]), g.W[i])
	}
}

type edge struct {
	u, v int
	w    uint32
}

func buildCSR(n int, edges []edge, coords func(v int) (int32, int32)) *Graph {
	g := &Graph{N: n, Off: make([]int32, n+1)}
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	for v := 0; v < n; v++ {
		g.Off[v+1] = g.Off[v] + deg[v]
	}
	m := int(g.Off[n])
	g.Dst = make([]int32, m)
	g.W = make([]uint32, m)
	pos := make([]int32, n)
	copy(pos, g.Off[:n])
	for _, e := range edges {
		g.Dst[pos[e.u]] = int32(e.v)
		g.W[pos[e.u]] = e.w
		pos[e.u]++
		g.Dst[pos[e.v]] = int32(e.u)
		g.W[pos[e.v]] = e.w
		pos[e.v]++
	}
	if coords != nil {
		g.X = make([]int32, n)
		g.Y = make([]int32, n)
		for v := 0; v < n; v++ {
			g.X[v], g.Y[v] = coords(v)
		}
	}
	return g
}

// TriGrid builds a triangular grid mesh of rows×cols vertices: the planar,
// low-degree, high-diameter structure of the hugetric DIMACS meshes used by
// bfs. Unweighted.
func TriGrid(rows, cols int) *Graph {
	n := rows * cols
	id := func(r, c int) int { return r*cols + c }
	var edges []edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, edge{id(r, c), id(r, c+1), 1})
			}
			if r+1 < rows {
				edges = append(edges, edge{id(r, c), id(r+1, c), 1})
				if c+1 < cols {
					edges = append(edges, edge{id(r, c), id(r+1, c+1), 1}) // diagonal
				}
			}
		}
	}
	return buildCSR(n, edges, nil)
}

// RoadMap builds a rows×cols grid road network with random integer weights
// in [minW, maxW], a fraction of edges removed (dead ends and irregularity,
// like real road maps), and planar coordinates for A*'s heuristic. The
// remaining graph is kept connected by never removing a spanning backbone.
func RoadMap(rows, cols int, seed int64) *Graph {
	const (
		minW      = 1
		maxW      = 10
		removePct = 20
	)
	rng := rand.New(rand.NewSource(seed))
	id := func(r, c int) int { return r*cols + c }
	var edges []edge
	w := func() uint32 { return uint32(minW + rng.Intn(maxW-minW+1)) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				// Horizontal edges on row 0 plus all vertical edges form the
				// backbone; other edges may be removed.
				if r == 0 || rng.Intn(100) >= removePct {
					edges = append(edges, edge{id(r, c), id(r, c+1), w()})
				}
			}
			if r+1 < rows {
				edges = append(edges, edge{id(r, c), id(r+1, c), w()})
			}
		}
	}
	return buildCSR(rows*cols, edges, func(v int) (int32, int32) {
		return int32(v % cols), int32(v / cols)
	})
}

// PowerLaw builds a Barabási–Albert-style preferential-attachment graph of
// n vertices with m edges per new vertex: the skewed-degree structure of
// the com-youtube social graph used by color. Unweighted.
func PowerLaw(n, m int, seed int64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []edge
	// Endpoint multiset for preferential attachment.
	targets := make([]int, 0, 2*n*m)
	for v := 0; v < m+1 && v < n; v++ {
		for u := 0; u < v; u++ {
			edges = append(edges, edge{u, v, 1})
			targets = append(targets, u, v)
		}
	}
	for v := m + 1; v < n; v++ {
		seen := map[int]bool{}
		for len(seen) < m {
			u := targets[rng.Intn(len(targets))]
			if u != v && !seen[u] {
				seen[u] = true
				edges = append(edges, edge{u, v, 1})
				targets = append(targets, u, v)
			}
		}
		targets = append(targets, v) // self weight
	}
	return buildCSR(n, edges, nil)
}
