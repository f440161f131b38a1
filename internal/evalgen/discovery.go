package evalgen

import (
	"context"
	"fmt"
	"time"

	"openwf/internal/clock"
	"openwf/internal/community"
	"openwf/internal/host"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
)

// discoveryT0 anchors the discovery grid's virtual clock (any fixed
// instant works; runs are deterministic relative to it).
var discoveryT0 = time.Date(2009, 11, 30, 12, 0, 0, 0, time.UTC)

// DiscoverySetup builds the routing fixture of the root
// BenchmarkDiscoveryInitiate: a community of `hosts` members on the
// instantaneous in-memory network under a frozen virtual clock, where
// host00 initiates and carries all knowhow for a `chain`-task problem,
// hosts 1..providers offer every chain service, and every remaining
// member is "junk" — fragments and services over labels and tasks
// disjoint from the problem, the population an initiator should learn to
// skip.
//
// It prices the three ways host00 can come to know that population. Its
// first session on a cold index asks every member to describe itself:
// Calls/Initiate grows O(hosts), once. Every later session routes from
// what the first was told and stays flat as `hosts` grows. With
// advertiser=true the community runs the advertiser and the initiator's
// index is warmed (one pull sweep) before return, so the first session is
// flat too. The returned specification poses the chain problem; schedules
// should be reset between measurements.
func DiscoverySetup(ctx context.Context, hosts, providers, chain int, advertiser bool, seed int64) (*community.Community, proto.Addr, spec.Spec, error) {
	if hosts < providers+1 || providers < 1 || chain < 1 {
		return nil, "", spec.Spec{}, fmt.Errorf("evalgen: invalid discovery grid hosts=%d providers=%d chain=%d", hosts, providers, chain)
	}
	var frags []*model.Fragment
	var regs []service.Registration
	for i := 0; i < chain; i++ {
		task := model.Task{
			ID:      model.TaskID(fmt.Sprintf("d-t%02d", i)),
			Mode:    model.Conjunctive,
			Inputs:  []model.LabelID{model.LabelID(fmt.Sprintf("d-l%02d", i))},
			Outputs: []model.LabelID{model.LabelID(fmt.Sprintf("d-l%02d", i+1))},
		}
		f, err := model.NewFragment(fmt.Sprintf("know-d%02d", i), task)
		if err != nil {
			return nil, "", spec.Spec{}, err
		}
		frags = append(frags, f)
		regs = append(regs, service.Registration{
			Descriptor: service.Descriptor{Task: task.ID, Specialization: 0.5},
		})
	}

	specs := make([]community.HostSpec, hosts)
	for h := 0; h < hosts; h++ {
		hs := community.HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
		switch {
		case h == 0:
			hs.Fragments = frags
		case h <= providers:
			hs.Services = regs
		default:
			jt := model.Task{
				ID:      model.TaskID(fmt.Sprintf("junk-t%04d", h)),
				Mode:    model.Conjunctive,
				Inputs:  []model.LabelID{model.LabelID(fmt.Sprintf("junk-l%04d", h))},
				Outputs: []model.LabelID{model.LabelID(fmt.Sprintf("junk-m%04d", h))},
			}
			jf, err := model.NewFragment(fmt.Sprintf("junk-know-%04d", h), jt)
			if err != nil {
				return nil, "", spec.Spec{}, err
			}
			hs.Fragments = []*model.Fragment{jf}
			hs.Services = []service.Registration{{
				Descriptor: service.Descriptor{Task: jt.ID, Specialization: 0.5},
			}}
		}
		specs[h] = hs
	}

	engCfg := EvalEngineConfig()
	engCfg.ParallelQuery = true
	opts := community.Options{
		Clock:  clock.NewSim(discoveryT0),
		Seed:   seed,
		Engine: &engCfg,
	}
	if advertiser {
		opts.Discovery = &host.DiscoveryConfig{}
	}
	comm, err := community.New(opts, specs...)
	if err != nil {
		return nil, "", spec.Spec{}, err
	}
	initiator := specs[0].ID
	if advertiser {
		if err := comm.WarmDiscovery(ctx, initiator); err != nil {
			_ = comm.Close()
			return nil, "", spec.Spec{}, err
		}
	}
	s := spec.Must(
		[]model.LabelID{"d-l00"},
		[]model.LabelID{model.LabelID(fmt.Sprintf("d-l%02d", chain))},
	)
	return comm, initiator, s, nil
}
