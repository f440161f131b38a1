package fragment

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"openwf/internal/model"
)

func lbl(ls ...string) []model.LabelID {
	out := make([]model.LabelID, len(ls))
	for i, l := range ls {
		out[i] = model.LabelID(l)
	}
	return out
}

func frag(t *testing.T, name, in, out string) *model.Fragment {
	t.Helper()
	f, err := model.NewFragment(name, model.Task{
		ID: model.TaskID("task-" + name), Mode: model.Conjunctive,
		Inputs: lbl(in), Outputs: lbl(out),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAddAndQuery(t *testing.T) {
	m := NewManager()
	if err := m.Add(frag(t, "f1", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(frag(t, "f2", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if len(m.frags) != 2 {
		t.Errorf("%d fragments", len(m.frags))
	}
	got := m.Consuming(lbl("a"))
	if len(got) != 1 || got[0].Name != "f1" {
		t.Errorf("Consuming(a) = %v", got)
	}
	got = m.Consuming(lbl("a", "b"))
	if len(got) != 2 {
		t.Errorf("Consuming(a,b) = %v", got)
	}
	if got := m.Consuming(lbl("zzz")); len(got) != 0 {
		t.Errorf("Consuming(zzz) = %v", got)
	}
	all := m.Consuming(nil)
	if len(all) != 2 || all[0].Name != "f1" || all[1].Name != "f2" {
		t.Errorf("Consuming(nil) = %v", all)
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	m := NewManager()
	bad := &model.Fragment{Name: "bad"} // no tasks: invalid workflow
	if err := m.Add(bad); err == nil {
		t.Error("invalid fragment accepted")
	}
}

func TestAddReplacesByName(t *testing.T) {
	m := NewManager()
	if err := m.Add(frag(t, "f", "a", "b")); err != nil {
		t.Fatal(err)
	}
	// Same name, different task consuming c instead of a.
	if err := m.Add(frag(t, "f", "c", "d")); err != nil {
		t.Fatal(err)
	}
	if len(m.frags) != 1 {
		t.Errorf("%d fragments after replacement", len(m.frags))
	}
	if got := m.Consuming(lbl("a")); len(got) != 0 {
		t.Errorf("replaced fragment still answers: %v", got)
	}
	if got := m.Consuming(lbl("c")); len(got) != 1 {
		t.Errorf("replacement does not answer: %v", got)
	}
}

func TestRemove(t *testing.T) {
	m := NewManager()
	if err := m.Add(frag(t, "f", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if !m.Remove("f") {
		t.Error("Remove returned false")
	}
	if m.Remove("f") {
		t.Error("second Remove returned true")
	}
	if got := m.Consuming(lbl("a")); len(got) != 0 {
		t.Errorf("removed fragment still answers: %v", got)
	}
}

// TestAddKeepsItsOwnCopy: Consuming shares the stored fragments, so Add
// stores a copy — a fragment its caller changes afterwards leaves the
// answer as it was.
func TestAddKeepsItsOwnCopy(t *testing.T) {
	m := NewManager()
	f := frag(t, "f", "a", "b")
	if err := m.Add(f); err != nil {
		t.Fatal(err)
	}
	f.Tasks[0].Inputs[0] = "mutated"
	f.Tasks = append(f.Tasks, f.Tasks[0])
	got := m.Consuming(lbl("a"))
	if len(got) != 1 || len(got[0].Tasks) != 1 || got[0].Tasks[0].Inputs[0] != "a" {
		t.Errorf("Consuming(a) = %v after the caller changed what it added", got)
	}
	if got := m.Consuming(lbl("mutated")); len(got) != 0 {
		t.Errorf("Consuming(mutated) = %v", got)
	}
}

func TestMultiTaskFragmentIndexing(t *testing.T) {
	m := NewManager()
	f, err := model.NewFragment("chain",
		model.Task{ID: "t1", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("b")},
		model.Task{ID: "t2", Mode: model.Conjunctive, Inputs: lbl("b"), Outputs: lbl("c")},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(f); err != nil {
		t.Fatal(err)
	}
	// The fragment matches a query for either consumed label, once.
	for _, l := range []string{"a", "b"} {
		got := m.Consuming(lbl(l))
		if len(got) != 1 {
			t.Errorf("Consuming(%s) = %d fragments", l, len(got))
		}
	}
	got := m.Consuming(lbl("a", "b"))
	if len(got) != 1 {
		t.Errorf("Consuming(a,b) returned %d fragments, want 1 (dedup)", len(got))
	}
}

// TestPropConsumingMatchesLinearScan: Consuming answers queries exactly
// like a naive scan over the fragments stored last under each name, in
// name order, nil labels included.
func TestPropConsumingMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		stored := make(map[string]*model.Fragment)
		labelU := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < 10; i++ {
			in := labelU[rng.Intn(len(labelU))]
			out := labelU[rng.Intn(len(labelU))]
			if in == out {
				continue
			}
			// Names repeat, so some Adds replace a fragment.
			name := fmt.Sprintf("f%d", rng.Intn(7))
			fr, err := model.NewFragment(name, model.Task{
				ID: model.TaskID(fmt.Sprintf("t%d", i)), Mode: model.Conjunctive,
				Inputs: lbl(in), Outputs: lbl(out),
			})
			if err != nil {
				return false
			}
			if err := m.Add(fr); err != nil {
				return false
			}
			stored[name] = fr
		}
		query := lbl(labelU[rng.Intn(len(labelU))], labelU[rng.Intn(len(labelU))])
		if rng.Intn(4) == 0 {
			query = nil
		}
		var want []string
		for name, fr := range stored {
			for _, tk := range fr.Tasks {
				if query == nil || slices.ContainsFunc(tk.Inputs, func(l model.LabelID) bool { return slices.Contains(query, l) }) {
					want = append(want, name)
					break
				}
			}
		}
		slices.Sort(want)
		var got []string
		for _, fr := range m.Consuming(query) {
			if fr.Tasks[0].ID != stored[fr.Name].Tasks[0].ID {
				return false // an older fragment of the name
			}
			got = append(got, fr.Name)
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
