// Package fragment implements the Fragment Manager of the execution
// subsystem (§4.2): it maintains a host's database of workflow fragments
// (the participant's knowhow) and answers knowhow queries issued during
// workflow construction — returning the fragments that can extend the
// querying supergraph at the boundary of its colored region.
package fragment

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"openwf/internal/model"
)

// Manager is a host's fragment store. It is safe for concurrent use.
type Manager struct {
	mu    sync.RWMutex
	frags map[string]*model.Fragment
	// consumerIdx maps each label to the names of fragments with a task
	// consuming it, for efficient frontier queries.
	consumerIdx map[model.LabelID]map[string]struct{}
	// labels lists consumerIdx's keys, sorted, once ConsumedLabels has
	// built it; a change drops it, never edits it, so ConsumedLabels can
	// share it.
	labels []model.LabelID
}

// NewManager returns an empty fragment manager.
func NewManager() *Manager {
	return &Manager{
		frags:       make(map[string]*model.Fragment),
		consumerIdx: make(map[model.LabelID]map[string]struct{}),
	}
}

// Add stores a fragment (validated). Adding a fragment with a name already
// present replaces it.
func (m *Manager) Add(f *model.Fragment) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("adding fragment: %w", err)
	}
	c := f.Clone()
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.frags[c.Name]; ok {
		m.unindexLocked(old)
	}
	m.frags[c.Name] = c
	m.indexLocked(c)
	return nil
}

// Remove deletes a fragment by name; it reports whether it existed.
func (m *Manager) Remove(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.frags[name]
	if !ok {
		return false
	}
	m.unindexLocked(f)
	delete(m.frags, name)
	return true
}

func (m *Manager) indexLocked(f *model.Fragment) {
	for _, t := range f.Tasks {
		for _, in := range t.Inputs {
			set, ok := m.consumerIdx[in]
			if !ok {
				set = make(map[string]struct{})
				m.consumerIdx[in] = set
				m.labels = nil
			}
			set[f.Name] = struct{}{}
		}
	}
}

func (m *Manager) unindexLocked(f *model.Fragment) {
	for _, t := range f.Tasks {
		for _, in := range t.Inputs {
			if set, ok := m.consumerIdx[in]; ok {
				delete(set, f.Name)
				if len(set) == 0 {
					delete(m.consumerIdx, in)
					m.labels = nil
				}
			}
		}
	}
}

// Consuming returns clones of every fragment containing a task that
// consumes any of the given labels — the reply to a Fragment Message
// query. Results are ordered by fragment name.
func (m *Manager) Consuming(labels []model.LabelID) []*model.Fragment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make(map[string]struct{})
	for _, l := range labels {
		for name := range m.consumerIdx[l] {
			names[name] = struct{}{}
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	out := make([]*model.Fragment, 0, len(sorted))
	for _, name := range sorted {
		out = append(out, m.frags[name].Clone())
	}
	return out
}

// All returns clones of every stored fragment, ordered by name.
func (m *Manager) All() []*model.Fragment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.frags))
	for name := range m.frags {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*model.Fragment, 0, len(names))
	for _, name := range names {
		out = append(out, m.frags[name].Clone())
	}
	return out
}

// ConsumedLabels returns every label consumed by any stored fragment,
// sorted — the knowhow half of the host's capability advertisement
// (internal/discovery): a frontier FragmentQuery for a label outside
// this set would come back empty. The list is built on the first call
// after the set changes and shared by every caller until the next change,
// so the caller must not modify it.
func (m *Manager) ConsumedLabels() []model.LabelID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.labels == nil {
		m.labels = make([]model.LabelID, 0, len(m.consumerIdx))
		for l := range m.consumerIdx {
			m.labels = append(m.labels, l)
		}
		slices.Sort(m.labels)
	}
	return m.labels
}
