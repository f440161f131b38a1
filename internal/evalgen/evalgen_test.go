package evalgen

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"openwf/internal/community"
	"openwf/internal/core"
	"openwf/internal/model"
	"openwf/internal/testutil"
)

func TestGenerateValidatesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(1, rng); err == nil {
		t.Error("Generate(1) accepted")
	}
	if _, err := Generate(0, rng); err == nil {
		t.Error("Generate(0) accepted")
	}
}

// isStronglyConnected verifies the defining property independently.
func isStronglyConnected(sc *Scenario) bool {
	for s := 0; s < sc.NumTasks(); s++ {
		dist := sc.bfs(s)
		for _, d := range dist {
			if d == -1 {
				return false
			}
		}
	}
	return true
}

func TestGenerateStronglyConnected(t *testing.T) {
	for _, n := range []int{2, 5, 25, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		sc, err := Generate(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !isStronglyConnected(sc) {
			t.Errorf("n=%d: not strongly connected", n)
		}
		if sc.NumTasks() != n {
			t.Errorf("NumTasks = %d, want %d", sc.NumTasks(), n)
		}
		edges := 0
		for _, s := range sc.succ {
			edges += len(s)
		}
		if edges < n {
			t.Errorf("n=%d: %d edges, strong connectivity needs ≥ n", n, edges)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(50, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(50, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.succ, b.succ) {
		t.Error("same seed, different edges")
	}
	for i := 0; i < 50; i++ {
		ta, tb := a.Task(i), b.Task(i)
		if len(ta.Inputs) != len(tb.Inputs) {
			t.Fatalf("task %d differs across same-seed generations", i)
		}
	}
}

func TestTasksAreDisjunctiveAndValid(t *testing.T) {
	sc, err := Generate(30, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		task := sc.Task(i)
		if task.Mode != model.Disjunctive {
			t.Fatalf("task %d is not disjunctive", i)
		}
		if err := task.Validate(); err != nil {
			t.Fatalf("task %d invalid: %v", i, err)
		}
	}
	frags, err := sc.Fragments()
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 30 {
		t.Fatalf("fragments = %d", len(frags))
	}
}

func TestDistributeFragmentsEven(t *testing.T) {
	sc, err := Generate(100, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	parts, err := sc.DistributeFragments(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	seen := make(map[string]bool)
	for _, p := range parts {
		if len(p) != 25 {
			t.Errorf("partition size %d, want 25", len(p))
		}
		total += len(p)
		for _, f := range p {
			if seen[f.Name] {
				t.Errorf("fragment %q distributed twice", f.Name)
			}
			seen[f.Name] = true
		}
	}
	if total != 100 {
		t.Errorf("total = %d", total)
	}
	if _, err := sc.DistributeFragments(0, rng); err == nil {
		t.Error("DistributeFragments(0) accepted")
	}
}

func TestDistributeServicesEven(t *testing.T) {
	sc, err := Generate(10, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	parts, err := sc.DistributeServices(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := make(map[model.TaskID]bool)
	for _, p := range parts {
		total += len(p)
		for _, reg := range p {
			if seen[reg.Descriptor.Task] {
				t.Errorf("service %q distributed twice", reg.Descriptor.Task)
			}
			seen[reg.Descriptor.Task] = true
		}
	}
	if total != 10 {
		t.Errorf("total = %d", total)
	}
	if _, err := sc.DistributeServices(0, rng); err == nil {
		t.Error("DistributeServices(0) accepted")
	}
}

func TestSamplePathLengths(t *testing.T) {
	sc, err := Generate(50, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	maxLen := sc.MaxPathLength()
	if maxLen < 2 {
		t.Fatalf("MaxPathLength = %d", maxLen)
	}
	for length := 1; length <= maxLen; length++ {
		if _, ok := sc.SamplePath(length, rng); !ok {
			// Lengths below the max may occasionally be missing from
			// sampled sources but must exist for small lengths.
			if length <= 2 {
				t.Errorf("no path of length %d found", length)
			}
		}
	}
	if _, ok := sc.SamplePath(maxLen+10, rng); ok {
		t.Errorf("sampled a path longer than the maximum %d", maxLen)
	}
	if _, ok := sc.SamplePath(0, rng); ok {
		t.Error("SamplePath(0) succeeded")
	}
}

// TestPropSampledSpecsSolvable: every sampled specification is solvable by
// the construction algorithm against the full supergraph, and the solution
// has exactly the requested number of tasks.
func TestPropSampledSpecsSolvable(t *testing.T) {
	sc, err := Generate(40, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	frags, err := sc.Fragments()
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.CollectAll(frags)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, rawLen uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		length := int(rawLen%8) + 1
		s, ok := sc.SamplePath(length, rng)
		if !ok {
			return true
		}
		res, err := core.Construct(g, s)
		if err != nil {
			return false
		}
		return res.Workflow.NumTasks() == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMaxPathLengthGrowsWithGraphSize: the paper's observation that the
// longest path grows with the number of task nodes (which is why small
// graphs have no timings for long paths).
func TestMaxPathLengthGrowsWithGraphSize(t *testing.T) {
	small, err := Generate(25, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Generate(250, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	if small.MaxPathLength() >= large.MaxPathLength() {
		t.Errorf("max path: 25 tasks → %d, 250 tasks → %d; expected growth",
			small.MaxPathLength(), large.MaxPathLength())
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	res, err := RunExperiment(context.Background(), ExperimentConfig{
		Tasks:       25,
		Hosts:       3,
		PathLengths: []int{2, 4},
		Runs:        3,
		Community:   community.Options{Seed: 99},
	}, "3 host")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int{2, 4} {
		sm, ok := res.Series.Points[x]
		if !ok || sm.N() == 0 {
			t.Errorf("no measurements at length %d", x)
			continue
		}
		if sm.Mean() <= 0 {
			t.Errorf("non-positive mean at length %d", x)
		}
	}
	if res.Messages == 0 {
		t.Error("no network messages counted")
	}
	if res.MaxPathLength < 2 {
		t.Errorf("MaxPathLength = %d", res.MaxPathLength)
	}
}

// TestMeasurementsAreIndependent: the experiment loop's runs are independent
// problems — the same specification measured again costs the same round
// trips, knowledge collection included, because the initiator forgets what
// it was told between runs. (With only the calendars reset, the first run
// cost 83 round trips on this community, the second 30, later ones 14.)
func TestMeasurementsAreIndependent(t *testing.T) {
	const length = 8
	cfg := ExperimentConfig{Tasks: 100, Hosts: 10, Community: community.Options{Seed: 1}}
	rng := rand.New(rand.NewSource(cfg.Community.Seed))
	sc, err := Generate(cfg.Tasks, rng)
	if err != nil {
		t.Fatal(err)
	}
	comm, hosts, err := BuildCommunity(sc, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.Close()
	s, ok := sc.SamplePath(length, rng)
	if !ok {
		t.Fatalf("no path of length %d", length)
	}
	var first int64
	for run := 0; run < 3; run++ {
		before := comm.TransportStats().Calls
		if _, err := measure(context.Background(), comm, hosts[0], s, length); err != nil {
			t.Fatal(err)
		}
		calls := comm.TransportStats().Calls - before
		if run == 0 {
			first = calls
		} else if calls != first {
			t.Errorf("run %d cost %d round trips, the first %d", run, calls, first)
		}
	}
}

func TestRunExperimentValidation(t *testing.T) {
	if _, err := RunExperiment(context.Background(), ExperimentConfig{}, "x"); err == nil {
		t.Error("zero config accepted")
	}
}

func TestRunExperimentSkipsImpossibleLengths(t *testing.T) {
	res, err := RunExperiment(context.Background(), ExperimentConfig{
		Tasks:       10,
		Hosts:       2,
		PathLengths: []int{2, 40}, // 40 exceeds any 10-node graph's diameter
		Runs:        2,
		Community:   community.Options{Seed: 7},
	}, "2 host")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Series.Points[40]; ok {
		t.Error("impossible length has a data point")
	}
	if res.Skipped == 0 {
		t.Error("skips not counted")
	}
}

// TestBFSReusesBuffers: after warmup, spec-sampling's BFS sweeps run
// allocation-free — the visited and frontier buffers are scenario state,
// so benchmark setup no longer drowns -benchmem deltas in sampling
// allocations.
func TestBFSReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc, err := Generate(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	testutil.AllocBound(t, 0, func() { sc.bfs(7) })
	// The reused buffers must not corrupt results: fresh-scenario BFS
	// from the same seed agrees at every start node.
	rng2 := rand.New(rand.NewSource(1))
	fresh, err := Generate(100, rng2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < fresh.n; s++ {
		want := append([]int(nil), fresh.bfs(s)...)
		got := sc.bfs(s)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("bfs(%d)[%d] = %d, want %d", s, v, got[v], want[v])
			}
		}
	}
}
