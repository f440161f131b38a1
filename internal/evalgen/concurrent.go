package evalgen

import (
	"fmt"
	"math/rand"

	"openwf/internal/core"
	"openwf/internal/spec"
)

// ConcurrentConstructSetup builds the fixture for the root
// BenchmarkConcurrentConstruct: a workspace pool over a store snapshot of
// a generated scenario, plus nspecs pre-sampled specifications of the
// given path length. Scenario.SamplePath shares one
// rng, so the problem set must be drawn up front, outside the timed and
// parallel region.
func ConcurrentConstructSetup(tasks, nspecs, length int, seed int64) (*core.WorkspacePool, []spec.Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	sc, err := Generate(tasks, rng)
	if err != nil {
		return nil, nil, err
	}
	frags, err := sc.Fragments()
	if err != nil {
		return nil, nil, err
	}
	store, err := core.NewStore(frags...)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]spec.Spec, 0, nspecs)
	for len(specs) < nspecs {
		s, ok := sc.SamplePath(length, rng)
		if !ok {
			return nil, nil, fmt.Errorf("evalgen: scenario of %d tasks has no path of length %d", tasks, length)
		}
		specs = append(specs, s)
	}
	return core.NewWorkspacePool(store), specs, nil
}
