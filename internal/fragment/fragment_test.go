package fragment

import (
	"fmt"
	"math/rand"
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
	if m.Len() != 2 {
		t.Errorf("Len = %d", m.Len())
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
	all := m.All()
	if len(all) != 2 || all[0].Name != "f1" || all[1].Name != "f2" {
		t.Errorf("All = %v", all)
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
	if m.Len() != 1 {
		t.Errorf("Len = %d after replacement", m.Len())
	}
	if got := m.Consuming(lbl("a")); len(got) != 0 {
		t.Errorf("stale index entry: %v", got)
	}
	if got := m.Consuming(lbl("c")); len(got) != 1 {
		t.Errorf("replacement not indexed: %v", got)
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
		t.Errorf("index kept removed fragment: %v", got)
	}
}

func TestConsumingReturnsClones(t *testing.T) {
	m := NewManager()
	if err := m.Add(frag(t, "f", "a", "b")); err != nil {
		t.Fatal(err)
	}
	got := m.Consuming(lbl("a"))
	got[0].Tasks[0].Inputs[0] = "mutated"
	again := m.Consuming(lbl("a"))
	if again[0].Tasks[0].Inputs[0] != "a" {
		t.Error("Consuming exposed internal state")
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

// TestPropConsumingMatchesLinearScan: the index answers queries exactly
// like a naive scan over all fragments.
func TestPropConsumingMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		var frags []*model.Fragment
		labelU := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < 10; i++ {
			in := labelU[rng.Intn(len(labelU))]
			out := labelU[rng.Intn(len(labelU))]
			if in == out {
				continue
			}
			fr, err := model.NewFragment(fmt.Sprintf("f%d", i), model.Task{
				ID: model.TaskID(fmt.Sprintf("t%d", i)), Mode: model.Conjunctive,
				Inputs: lbl(in), Outputs: lbl(out),
			})
			if err != nil {
				return false
			}
			if err := m.Add(fr); err != nil {
				return false
			}
			frags = append(frags, fr)
		}
		query := lbl(labelU[rng.Intn(len(labelU))], labelU[rng.Intn(len(labelU))])
		want := make(map[string]bool)
		for _, fr := range frags {
			if fr.ConsumesAny(query) {
				want[fr.Name] = true
			}
		}
		got := m.Consuming(query)
		if len(got) != len(want) {
			return false
		}
		for _, fr := range got {
			if !want[fr.Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
