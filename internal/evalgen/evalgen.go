// Package evalgen generates the evaluation workloads of §5: a workflow
// supergraph of a chosen size built by "creating the desired number of
// nodes and then repeatedly adding edges between disconnected nodes until
// the graph is strongly connected", using only disjunctive task nodes so
// that every specification drawn from the graph is guaranteed satisfiable.
// From one supergraph a large number of specifications is drawn by picking
// paths of a desired length; the paths' endpoints become the triggering
// condition and the goal. The package also distributes the supergraph's
// tasks (as single-task fragments) and the corresponding services randomly
// and evenly across hosts, so the hosts must cooperate to solve any posed
// problem.
package evalgen

import (
	"fmt"
	"math/rand"

	"openwf/internal/model"
	"openwf/internal/service"
	"openwf/internal/spec"
)

// Scenario is one generated evaluation setup.
type Scenario struct {
	// n is the number of task nodes.
	n int
	// succ[u] lists tasks consuming u's output (edges u→v).
	succ [][]int
	// pred[v] lists tasks whose output v consumes.
	pred [][]int
	// bfsDist and bfsQueue are bfs's visited and frontier buffers,
	// reused across calls: spec sampling (SamplePath) runs bfs once or
	// more per drawn specification, and per-call allocations here used
	// to dominate benchmark-setup allocation counts, drowning the timed
	// windows' -benchmem deltas. Reuse makes Scenario's samplers
	// single-goroutine, like the rng they already share.
	bfsDist  []int
	bfsQueue []int
}

// taskID returns the identifier of task i.
func taskID(i int) model.TaskID { return model.TaskID(fmt.Sprintf("T%03d", i)) }

// outLabel returns the output label of task i.
func outLabel(i int) model.LabelID { return model.LabelID(fmt.Sprintf("o%03d", i)) }

// Generate builds a strongly connected supergraph over n disjunctive task
// nodes, reproducing the paper's generator: starting from isolated nodes,
// random directed edges are added only between pairs (u, v) where v is not
// yet reachable from u, until every node reaches every other. Edge count
// lands near the minimum needed, so path lengths between random endpoints
// grow with n (the paper's "max path length" cutoffs).
func Generate(n int, rng *rand.Rand) (*Scenario, error) {
	if n < 2 {
		return nil, fmt.Errorf("evalgen: need at least 2 tasks, got %d", n)
	}
	sc := &Scenario{
		n:    n,
		succ: make([][]int, n),
		pred: make([][]int, n),
	}
	// reach[u] is the bitset of nodes reachable from u (including u).
	words := (n + 63) / 64
	reach := make([][]uint64, n)
	for i := range reach {
		reach[i] = make([]uint64, words)
		reach[i][i/64] |= 1 << (i % 64)
	}
	reachable := func(u, v int) bool {
		return reach[u][v/64]&(1<<(v%64)) != 0
	}
	pairs := n * n // reachable ordered pairs including self-pairs
	addEdge := func(u, v int) {
		sc.succ[u] = append(sc.succ[u], v)
		sc.pred[v] = append(sc.pred[v], u)
		// Everything that reaches u now also reaches everything v
		// reaches.
		for w := 0; w < n; w++ {
			if !reachable(w, u) {
				continue
			}
			rw, rv := reach[w], reach[v]
			for i := 0; i < words; i++ {
				added := rv[i] &^ rw[i]
				if added != 0 {
					rw[i] |= added
					pairs += popcount(added)
				}
			}
		}
	}
	for pairs < n*n+n*(n-1) { // n self-pairs + n(n-1) distinct pairs
		// Rejection-sample a disconnected pair; fall back to an
		// exhaustive scan when the graph is nearly complete.
		u, v, ok := sampleDisconnected(n, rng, reachable)
		if !ok {
			break
		}
		addEdge(u, v)
	}
	return sc, nil
}

func popcount(x uint64) int {
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return count
}

// sampleDisconnected picks a uniformly random ordered pair (u, v), u ≠ v,
// with v not reachable from u. It tries randomly first, then scans.
func sampleDisconnected(n int, rng *rand.Rand, reachable func(u, v int) bool) (int, int, bool) {
	for try := 0; try < 4*n; try++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !reachable(u, v) {
			return u, v, true
		}
	}
	type pair struct{ u, v int }
	var candidates []pair
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && !reachable(u, v) {
				candidates = append(candidates, pair{u, v})
			}
		}
	}
	if len(candidates) == 0 {
		return 0, 0, false
	}
	p := candidates[rng.Intn(len(candidates))]
	return p.u, p.v, true
}

// NumTasks returns the number of task nodes.
func (sc *Scenario) NumTasks() int { return sc.n }

// Task materializes task i of the supergraph: a disjunctive task consuming
// the output labels of its predecessors and producing its own output.
func (sc *Scenario) Task(i int) model.Task {
	ins := make([]model.LabelID, 0, len(sc.pred[i]))
	for _, p := range sc.pred[i] {
		ins = append(ins, outLabel(p))
	}
	return model.Task{
		ID:      taskID(i),
		Mode:    model.Disjunctive,
		Inputs:  ins,
		Outputs: []model.LabelID{outLabel(i)},
	}
}

// Fragments returns the supergraph as single-task fragments.
func (sc *Scenario) Fragments() ([]*model.Fragment, error) {
	out := make([]*model.Fragment, 0, sc.n)
	for i := 0; i < sc.n; i++ {
		f, err := model.SingleTaskFragment(sc.Task(i))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// DistributeFragments splits the supergraph's single-task fragments
// randomly and evenly across the given number of hosts: each host holds
// 1/hosts of the knowledge, so the community must cooperate.
func (sc *Scenario) DistributeFragments(hosts int, rng *rand.Rand) ([][]*model.Fragment, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("evalgen: need at least 1 host")
	}
	frags, err := sc.Fragments()
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(len(frags))
	out := make([][]*model.Fragment, hosts)
	for i, idx := range perm {
		h := i % hosts
		out[h] = append(out[h], frags[idx])
	}
	return out, nil
}

// DistributeServices assigns each task's service to exactly one host,
// randomly and evenly, independently of the fragment distribution.
func (sc *Scenario) DistributeServices(hosts int, rng *rand.Rand) ([][]service.Registration, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("evalgen: need at least 1 host")
	}
	perm := rng.Perm(sc.n)
	out := make([][]service.Registration, hosts)
	for i, idx := range perm {
		h := i % hosts
		out[h] = append(out[h], service.Registration{
			Descriptor: service.Descriptor{Task: taskID(idx), Specialization: 0.5},
		})
	}
	return out, nil
}

// bfs computes task distances from start: dist[v] is the number of tasks
// on the shortest solution chain from start's output to v's output
// (consumers of start's output are at distance 1). Unreached nodes get -1.
// The returned slice is the scenario's reused buffer: it is valid until
// the next bfs call (SamplePath and MaxPathLength consume it in place).
func (sc *Scenario) bfs(start int) []int {
	if sc.bfsDist == nil {
		sc.bfsDist = make([]int, sc.n)
		sc.bfsQueue = make([]int, 0, sc.n)
	}
	dist := sc.bfsDist
	for i := range dist {
		dist[i] = -1
	}
	queue := sc.bfsQueue[:0]
	queue = append(queue, start)
	dist[start] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range sc.succ[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	sc.bfsQueue = queue
	return dist
}

// SamplePath draws a guaranteed-satisfiable specification whose shortest
// solution has exactly `length` tasks: a random source task s and a random
// task t at BFS distance `length` from s. The specification is
// ι = {output of s}, ω = {output of t} — "the initial and final label
// nodes of the path are used as the specification for that test run".
// ok is false when the supergraph has no path of that length (the paper's
// missing points for long paths in small graphs).
func (sc *Scenario) SamplePath(length int, rng *rand.Rand) (spec.Spec, bool) {
	if length < 1 {
		return spec.Spec{}, false
	}
	const tries = 64
	for try := 0; try < tries; try++ {
		s := rng.Intn(sc.n)
		dist := sc.bfs(s)
		var at []int
		for v, d := range dist {
			if d == length {
				at = append(at, v)
			}
		}
		if len(at) == 0 {
			continue
		}
		t := at[rng.Intn(len(at))]
		sp, err := spec.New(
			[]model.LabelID{outLabel(s)},
			[]model.LabelID{outLabel(t)},
		)
		if err != nil {
			continue
		}
		return sp, true
	}
	return spec.Spec{}, false
}

// MaxPathLength returns the supergraph's directed eccentricity maximum
// (the longest shortest-path, in tasks) — the largest path length for
// which SamplePath can succeed.
func (sc *Scenario) MaxPathLength() int {
	maxLen := 0
	for s := 0; s < sc.n; s++ {
		for _, d := range sc.bfs(s) {
			if d > maxLen {
				maxLen = d
			}
		}
	}
	return maxLen
}
