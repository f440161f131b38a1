package engine

import (
	"slices"

	"openwf/internal/model"
	"openwf/internal/proto"
)

// directory is an allocation session's memo of what its members have told
// it about themselves. The first fragment query the session sends a member
// asks it to describe itself (proto.FragmentQuery.Describe); the reply's
// capability set — complete, the member's whole advertisement — lands
// here, and every later sweep of the session (collection rounds, replans,
// the feasibility check, the call for bids, repair's re-auctions) contacts
// that member only when its set intersects the query. A member that has
// not described itself — unreachable, reply lost, a peer that ignores
// Describe — is asked every time, exactly as a broadcast would.
//
// The directory is created with its session, filled after each sweep
// returns (one goroutine, so no lock) and dropped with it: it is exactly
// as fresh as the "stable community during one construction" assumption
// the broadcast relies on, and needs no TTL. A set that went stale inside
// the session (a service withdrawn after the first sweep) is caught where
// it always was: the member declines the call for bids and §5.1 excludes
// the task. The zero value is an empty directory, and stays allocation-free
// until a member describes itself.
type directory struct {
	described map[proto.Addr]*proto.Advertise
}

// learn records a member's description of itself; nil (the reply carried
// none) is ignored, and so is everything on a nil directory (a sweep that
// belongs to no session). The decoded lists are retained as they are:
// sorted by contract, looked up by binary search. An unsorted list from a
// foreign peer costs a sort here, never a wrongly skipped member later.
func (d *directory) learn(from proto.Addr, caps *proto.Advertise) {
	if d == nil || caps == nil {
		return
	}
	if !slices.IsSorted(caps.Labels) {
		slices.Sort(caps.Labels)
	}
	if !slices.IsSorted(caps.Tasks) {
		slices.Sort(caps.Tasks)
	}
	if d.described == nil {
		d.described = make(map[proto.Addr]*proto.Advertise)
	}
	d.described[from] = caps
}

// filter returns, in candidate order, the members worth sending a sweep
// for labels (a fragment query) or tasks (feasibility, bids): every
// undescribed candidate, and every described one whose set intersects.
// describe reports whether any undescribed candidate is among them, i.e.
// whether the sweep should ask for descriptions.
func (d *directory) filter(candidates []proto.Addr, labels []model.LabelID, tasks []model.TaskID) (members []proto.Addr, describe bool) {
	if len(d.described) == 0 {
		return candidates, true
	}
	members = make([]proto.Addr, 0, len(candidates))
	for _, c := range candidates {
		caps, ok := d.described[c]
		switch {
		case !ok:
			describe = true
			members = append(members, c)
		case intersects(caps.Labels, labels) || intersects(caps.Tasks, tasks):
			members = append(members, c)
		}
	}
	return members, describe
}

// capable answers a feasibility query for the described members of routed
// from their own descriptions — marking in out the tasks they offer, with
// no message at all — and returns the members that still have to be asked.
func (d *directory) capable(routed []proto.Addr, tasks []model.TaskID, out map[model.TaskID]struct{}) []proto.Addr {
	if len(d.described) == 0 {
		return routed
	}
	ask := make([]proto.Addr, 0, len(routed))
	for _, member := range routed {
		caps, ok := d.described[member]
		if !ok {
			ask = append(ask, member)
			continue
		}
		for _, t := range tasks {
			if _, offered := slices.BinarySearch(caps.Tasks, t); offered {
				out[t] = struct{}{}
			}
		}
	}
	return ask
}

// intersects reports whether any of query is in the sorted set.
func intersects[S ~string](set, query []S) bool {
	for _, q := range query {
		if _, ok := slices.BinarySearch(set, q); ok {
			return true
		}
	}
	return false
}
