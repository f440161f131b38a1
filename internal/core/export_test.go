package core

import (
	"context"

	"openwf/internal/spec"
)

// ConstructFresh is ConstructIncremental in a new supergraph instead of a
// recycled one: the reference the recycling tests compare against.
func ConstructFresh(ctx context.Context, src KnowledgeSource, s spec.Spec, opts IncrementalOptions) (*Result, error) {
	g := NewSupergraph()
	for _, t := range opts.Exclude {
		g.MarkInfeasible(t)
	}
	return construct(ctx, g, src, s, opts.Feasibility)
}
