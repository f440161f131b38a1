package xmlconfig

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"openwf/internal/model"
)

const sample = `<?xml version="1.0"?>
<community>
  <host id="manager" x="1" y="2" speed="1.5"/>
  <host id="chef">
    <fragment name="omelets">
      <task id="cook omelets" mode="conjunctive">
        <input>omelet bar setup</input>
        <output>breakfast served</output>
      </task>
    </fragment>
    <fragment name="two-step">
      <task id="s1" mode="disjunctive">
        <input>a</input>
        <input>b</input>
        <output>mid</output>
      </task>
      <task id="s2">
        <input>mid</input>
        <output>done</output>
      </task>
    </fragment>
    <service task="cook omelets" duration="5m" specialization="0.9" user="true"/>
    <service task="s1" located="true" x="3" y="4"/>
  </host>
  <problem name="meals">
    <trigger>omelet bar setup</trigger>
    <goal>breakfast served</goal>
  </problem>
</community>`

func TestLoadSample(t *testing.T) {
	dep, err := load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Hosts) != 2 {
		t.Fatalf("hosts = %d", len(dep.Hosts))
	}
	manager := dep.Hosts[0]
	if manager.ID != "manager" || manager.Location.X != 1 || manager.Location.Y != 2 || manager.Speed != 1.5 {
		t.Errorf("manager = %+v", manager)
	}
	chef := dep.Hosts[1]
	if len(chef.Fragments) != 2 {
		t.Fatalf("chef fragments = %d", len(chef.Fragments))
	}
	if chef.Fragments[0].Name != "omelets" {
		t.Errorf("fragment name = %q", chef.Fragments[0].Name)
	}
	twoStep := chef.Fragments[1]
	if len(twoStep.Tasks) != 2 {
		t.Fatalf("two-step tasks = %d", len(twoStep.Tasks))
	}
	if twoStep.Tasks[0].Mode != model.Disjunctive {
		t.Errorf("s1 mode = %v", twoStep.Tasks[0].Mode)
	}
	if twoStep.Tasks[1].Mode != model.Conjunctive {
		t.Errorf("s2 default mode = %v", twoStep.Tasks[1].Mode)
	}
	if len(chef.Services) != 2 {
		t.Fatalf("services = %d", len(chef.Services))
	}
	cook := chef.Services[0].Descriptor
	if cook.Duration != 5*time.Minute || cook.Specialization != 0.9 || !cook.UserAction {
		t.Errorf("cook service = %+v", cook)
	}
	s1 := chef.Services[1].Descriptor
	if s1.Location == nil || s1.Location.X != 3 || s1.Location.Y != 4 {
		t.Errorf("s1 service = %+v", s1)
	}
	if len(dep.Problems) != 1 || dep.Problems[0].Name != "meals" {
		t.Fatalf("problems = %+v", dep.Problems)
	}
	if got := dep.Problems[0].Spec.String(); !strings.Contains(got, "breakfast served") {
		t.Errorf("problem spec = %s", got)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name, xml, wantErr string
	}{
		{"garbage", "not xml", "parsing"},
		{"no hosts", `<community/>`, "no hosts"},
		{"empty id", `<community><host/></community>`, "empty id"},
		{"dup host", `<community><host id="a"/><host id="a"/></community>`, "duplicate host"},
		{"bad mode", `<community><host id="a">
			<fragment name="f"><task id="t" mode="weird"><input>x</input><output>y</output></task></fragment>
			</host></community>`, "unknown mode"},
		{"invalid fragment", `<community><host id="a">
			<fragment name="f"><task id="t"><input>x</input></task></fragment>
			</host></community>`, "no outputs"},
		{"bad duration", `<community><host id="a">
			<service task="t" duration="fast"/>
			</host></community>`, "bad duration"},
		{"bad problem", `<community><host id="a"/>
			<problem name="p"><trigger>x</trigger></problem></community>`, "no goals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := load(strings.NewReader(tc.xml))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dep.xml")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	dep, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Hosts) != 2 {
		t.Errorf("hosts = %d", len(dep.Hosts))
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.xml")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestShippedCateringConfig keeps the sample deployment in cmd/openwf in
// sync with the loader.
func TestShippedCateringConfig(t *testing.T) {
	dep, err := LoadFile("../../cmd/openwf/catering.xml")
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Hosts) != 4 {
		t.Errorf("hosts = %d", len(dep.Hosts))
	}
	if len(dep.Problems) != 2 {
		t.Errorf("problems = %d", len(dep.Problems))
	}
}

func TestDeploymentSpec(t *testing.T) {
	one, err := load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	two := &Deployment{Problems: append(one.Problems, Problem{Name: "other", Spec: one.Problems[0].Spec})}
	none := &Deployment{}
	cases := []struct {
		name            string
		dep             *Deployment
		problem         string
		triggers, goals []string
		want, wantErr   string
	}{
		{"named", two, "meals", nil, nil, "breakfast served", ""},
		{"named wins over labels", one, "meals", []string{"x"}, []string{"y"}, "breakfast served", ""},
		{"unknown name", one, "nope", nil, nil, "", `no problem "nope"`},
		{"labels", two, "", []string{"a", "b"}, []string{"posed goal"}, "posed goal", ""},
		{"only problem", one, "", nil, nil, "breakfast served", ""},
		{"only problem, goals missing", one, "", []string{"a"}, nil, "breakfast served", ""},
		{"no problems", none, "", nil, nil, "", "name a problem"},
		{"several problems", two, "", []string{"a"}, nil, "", "name a problem"},
		{"invalid labels", none, "", []string{"a"}, []string{"a"}, "", "both trigger and goal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.dep.Spec(tc.problem, tc.triggers, tc.goals)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := s.String(); !strings.Contains(got, tc.want) {
				t.Errorf("spec = %s, want it to name %q", got, tc.want)
			}
		})
	}
}
