// Package fragment implements the Fragment Manager of the execution
// subsystem (§4.2): it maintains a host's database of workflow fragments
// (the participant's knowhow) and answers knowhow queries issued during
// workflow construction — returning the fragments that can extend the
// querying supergraph at the boundary of its colored region.
package fragment

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"openwf/internal/model"
)

// Manager is a host's fragment store. It is safe for concurrent use.
type Manager struct {
	mu sync.RWMutex
	// frags are the stored fragments, sorted by name. Each is the
	// manager's own copy, and a change replaces it, never edits it, so
	// Consuming shares them.
	frags []*model.Fragment
	// labels lists the labels frags consume, sorted, once ConsumedLabels
	// has built it; a change drops it, never edits it, so ConsumedLabels
	// can share it.
	labels []model.LabelID
}

// NewManager returns an empty fragment manager.
func NewManager() *Manager { return &Manager{} }

// Add stores a copy of a fragment (validated). Adding a fragment with a
// name already present replaces it.
func (m *Manager) Add(f *model.Fragment) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("adding fragment: %w", err)
	}
	c := f.Clone()
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := slices.BinarySearchFunc(m.frags, c.Name, byName); ok {
		m.frags[i] = c
	} else {
		m.frags = slices.Insert(m.frags, i, c)
	}
	m.labels = nil
	return nil
}

// Remove deletes a fragment by name; it reports whether it existed.
func (m *Manager) Remove(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := slices.BinarySearchFunc(m.frags, name, byName)
	if ok {
		m.frags = slices.Delete(m.frags, i, i+1)
		m.labels = nil
	}
	return ok
}

func byName(f *model.Fragment, name string) int { return strings.Compare(f.Name, name) }

// Consuming returns every fragment containing a task that consumes any of
// the given labels, ordered by name — the reply to a Fragment Message
// query; nil labels, the full-collection baseline's query, return every
// fragment. The fragments are shared, so the caller must not modify them.
func (m *Manager) Consuming(labels []model.LabelID) []*model.Fragment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return model.AppendConsuming(nil, m.frags, labels)
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
		for _, f := range m.frags {
			for _, t := range f.Tasks {
				m.labels = append(m.labels, t.Inputs...)
			}
		}
		slices.Sort(m.labels)
		m.labels = slices.Compact(m.labels)
	}
	return m.labels
}
