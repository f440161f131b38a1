package service

import (
	"errors"
	"maps"
	"reflect"
	"strings"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/space"
	"openwf/internal/testutil"
)

func reg(task string, spec float64) Registration {
	return Registration{Descriptor: Descriptor{Task: model.TaskID(task), Specialization: spec}}
}

func TestDescriptorValidate(t *testing.T) {
	cases := []struct {
		name    string
		desc    Descriptor
		wantErr string
	}{
		{"ok", Descriptor{Task: "t", Specialization: 0.5}, ""},
		{"ok bounds", Descriptor{Task: "t", Specialization: 1}, ""},
		{"empty task", Descriptor{}, "empty task"},
		{"spec too high", Descriptor{Task: "t", Specialization: 1.1}, "outside"},
		{"spec negative", Descriptor{Task: "t", Specialization: -0.1}, "outside"},
		{"negative duration", Descriptor{Task: "t", Duration: -time.Second}, "negative duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.desc.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestManagerRegisterAndQuery(t *testing.T) {
	m := NewManager(nil)
	if err := m.Register(reg("cook", 0.9)); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(reg("serve", 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(Registration{}); err == nil {
		t.Error("invalid registration accepted")
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d", m.Count())
	}
	if d, ok := m.CanPerform("cook"); !ok || d.Specialization != 0.9 {
		t.Errorf("CanPerform(cook) = %+v, %v", d, ok)
	}
	if _, ok := m.CanPerform("fly"); ok {
		t.Error("CanPerform(fly) = true")
	}
	tasks := m.Tasks()
	if len(tasks) != 2 || tasks[0] != "cook" || tasks[1] != "serve" {
		t.Errorf("Tasks = %v", tasks)
	}
	capable := m.Capable([]model.TaskID{"cook", "fly", "serve"})
	if len(capable) != 2 {
		t.Errorf("Capable = %v", capable)
	}
	// Replacement, then removal.
	if err := m.Register(reg("cook", 0.1)); err != nil {
		t.Fatal(err)
	}
	if d, _ := m.CanPerform("cook"); d.Specialization != 0.1 {
		t.Error("re-registration did not replace")
	}
	m.Unregister("cook")
	if _, ok := m.CanPerform("cook"); ok {
		t.Error("Unregister did not remove")
	}
}

func TestInvokeWithFunc(t *testing.T) {
	m := NewManager(nil)
	err := m.Register(Registration{
		Descriptor: Descriptor{Task: "double", Specialization: 0.5},
		Fn: func(inv Invocation) (Outputs, error) {
			in := inv.Inputs["x"]
			return Outputs{"y": append(in, in...)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := m.Invoke(Invocation{
		Task:   "double",
		Inputs: Inputs{"x": []byte("ab")},
	}, []model.LabelID{"y"})
	if err != nil {
		t.Fatal(err)
	}
	if string(outs["y"]) != "abab" {
		t.Errorf("y = %q", outs["y"])
	}
}

// TestInvokeOutputs: Invoke hands back the body's own map when it holds
// exactly the declared labels, and otherwise a new one that fills each
// missing label with its provenance note and drops every undeclared one
// (the workflow pruned it).
func TestInvokeOutputs(t *testing.T) {
	own := Outputs{"y": []byte("Y")}
	for _, tc := range []struct {
		name     string
		fn       Func
		declared []model.LabelID
		want     map[model.LabelID]string
		own      bool // the result is the body's own map
	}{
		{"exact set returned as is", func(Invocation) (Outputs, error) { return own, nil }, lbls("y"), map[model.LabelID]string{"y": "Y"}, true},
		{"missing output filled", func(Invocation) (Outputs, error) { return Outputs{"a": []byte("A")}, nil }, lbls("a", "b"), map[model.LabelID]string{"a": "A", "b": "b by t"}, false},
		{"undeclared output dropped", func(Invocation) (Outputs, error) {
			return Outputs{"wanted": []byte("w"), "waste": []byte("x")}, nil
		}, lbls("wanted"), map[model.LabelID]string{"wanted": "w"}, false},
		{"nil outputs get the defaults", func(Invocation) (Outputs, error) { return nil, nil }, lbls("a"), map[model.LabelID]string{"a": "a by t"}, false},
		{"nil Fn gets the defaults", nil, lbls("a", "b"), map[model.LabelID]string{"a": "a by t", "b": "b by t"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewManager(nil)
			if err := m.Register(Registration{Descriptor: Descriptor{Task: "t"}, Fn: tc.fn}); err != nil {
				t.Fatal(err)
			}
			outs, err := m.Invoke(Invocation{Task: "t"}, tc.declared)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[model.LabelID]string, len(outs))
			for l, data := range outs {
				got[l] = string(data)
			}
			if !maps.Equal(got, tc.want) {
				t.Errorf("outputs = %q, want %q", got, tc.want)
			}
			if same := reflect.ValueOf(outs).UnsafePointer() == reflect.ValueOf(own).UnsafePointer(); same != tc.own {
				t.Errorf("result is the body's own map: %v, want %v", same, tc.own)
			}
		})
	}
	t.Run("exact set allocates nothing", func(t *testing.T) {
		m := NewManager(nil)
		if err := m.Register(Registration{Descriptor: Descriptor{Task: "t"}, Fn: func(Invocation) (Outputs, error) { return own, nil }}); err != nil {
			t.Fatal(err)
		}
		declared := lbls("y")
		testutil.AllocBound(t, 0, func() {
			if _, err := m.Invoke(Invocation{Task: "t"}, declared); err != nil {
				t.Fatal(err)
			}
		})
	})
}

func lbls(ls ...model.LabelID) []model.LabelID { return ls }

func TestInvokeUnknownService(t *testing.T) {
	m := NewManager(nil)
	if _, err := m.Invoke(Invocation{Task: "nope"}, nil); err == nil {
		t.Error("Invoke of unknown service succeeded")
	}
}

func TestInvokeServiceError(t *testing.T) {
	m := NewManager(nil)
	sentinel := errors.New("user refused")
	err := m.Register(Registration{
		Descriptor: Descriptor{Task: "flaky", Specialization: 0.5},
		Fn:         func(Invocation) (Outputs, error) { return nil, sentinel },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Invoke(Invocation{Task: "flaky"}, nil); !errors.Is(err, sentinel) {
		t.Errorf("Invoke = %v, want wrapped sentinel", err)
	}
}

func TestInvokeDurationUsesClock(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	m := NewManager(sim)
	if err := m.Register(Registration{
		Descriptor: Descriptor{Task: "slow", Duration: 10 * time.Second, Specialization: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		if _, err := m.Invoke(Invocation{Task: "slow"}, nil); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	// The invocation blocks on simulated time.
	for sim.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Invoke returned before the simulated duration elapsed")
	default:
	}
	sim.Advance(10 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Invoke never returned after Advance")
	}
}

func TestLocatedDescriptor(t *testing.T) {
	d := Descriptor{
		Task: "onsite", Specialization: 0.5,
		Location: &space.Point{X: 1, Y: 2},
	}
	if err := d.validate(); err != nil {
		t.Fatal(err)
	}
	m := NewManager(nil)
	if err := m.Register(Registration{Descriptor: d}); err != nil {
		t.Fatal(err)
	}
	got, ok := m.CanPerform("onsite")
	if !ok || got.Location == nil || *got.Location != (space.Point{X: 1, Y: 2}) {
		t.Errorf("CanPerform = %+v", got)
	}
}
