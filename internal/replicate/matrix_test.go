package replicate

// pathMatrix holds all-pairs shortest paths over the flow graph snapshot,
// where the length of a path is the total number of RTLs in the traversed
// blocks (both endpoints included). Built eagerly with Warshall/Floyd, as
// in step 1 of the paper's algorithm, and then used for every lookup of
// the sweep. It is the reference the tests compare the on-demand
// pathOracle (oracle.go) against: both must answer every dist/path query
// identically.
type pathMatrix struct {
	snap *graphSnapshot
	d    [][]int // d[i][j]: min RTLs over paths i..j (inclusive); inf if none
}

// newPathMatrix builds the all-pairs matrix from the snapshot.
func newPathMatrix(snap *graphSnapshot) *pathMatrix {
	n := len(snap.cost)
	m := &pathMatrix{snap: snap, d: make([][]int, n)}
	for i := range m.d {
		m.d[i] = make([]int, n)
		for j := range m.d[i] {
			m.d[i][j] = inf
		}
	}
	for i, succs := range snap.succs {
		for _, j := range succs {
			if d := snap.cost[i] + snap.cost[j]; d < m.d[i][j] {
				m.d[i][j] = d
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if i == k || m.d[i][k] == inf {
				continue
			}
			dik := m.d[i][k]
			for j := 0; j < n; j++ {
				if j == k || m.d[k][j] == inf {
					continue
				}
				if d := dik + m.d[k][j] - snap.cost[k]; d < m.d[i][j] {
					m.d[i][j] = d
				}
			}
		}
	}
	return m
}

// matrixFinder is the path finder the tests hand to jumps in place of
// oracleFinder.
func matrixFinder(s *graphSnapshot) pathFinder { return newPathMatrix(s) }

func (m *pathMatrix) cost(i int) int    { return m.snap.cost[i] }
func (m *pathMatrix) dist(i, j int) int { return m.d[i][j] }

// path returns the canonical shortest block sequence from i to j
// (inclusive of both), or nil if none exists.
func (m *pathMatrix) path(i, j int) []int {
	row := m.d[i]
	return canonPath(m.snap, func(x int) int {
		if x == i {
			return m.snap.cost[i]
		}
		return row[x]
	}, i, j)
}
